"""Report structures (the 'Report_v1' of Fig. 7).

The control plane restructures raw register reads into these records and
ships them to the archiver pipeline as **rows**: a document is a
``(keys, values)`` pair — its key tuple, interned (one module constant
per fixed schema), and a value tuple in the same order with every
top-level list stored as a tuple.  JSON has no tuples, so a row is
lossless for every document this system ships.  A report sink receives
a :class:`Block`: a list of rows in emission order, mixed schemas in one
list, plus one **tail** — the fields every row's document ends with,
carried once per block.  The control plane ships an empty tail; the
shipper's envelope and Logstash's Report_v2 metadata are appended to
it, once per block, and the archive keeps one copy of it per block.
Each document's field list is defined once, here: a key tuple plus a
row builder; ``to_document()`` is ``dict(zip(*row))``, and
``from_document()`` the way back.  What the control plane shipped is
read back from the archive through a :class:`ReportView`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netsim.packet import int_to_ip, ip_to_int
from repro.netsim.units import NS_PER_S


#: One document: its interned key tuple and the value tuple beside it.
Row = Tuple[tuple, tuple]
#: The tail of a block whose documents are its rows.
NO_TAIL: Row = ((), ())


class Block(list):
    """What a report sink receives: rows in emission order, and the
    ``tail`` every row's document ends with — a row's document is
    ``dict(zip(keys + tail_keys, values + tail_values))``.  A tail's
    keys are none of its rows' keys.  A layer that adds a field every
    document shares sets it in a new block's tail, once: the rows, and
    the caller's block, are never copied per row.  A plain list of rows
    is taken, where a block enters from outside, as a block with an
    empty tail (:meth:`of`)."""

    __slots__ = ("tail",)

    def __init__(self, rows: Iterable[Row] = (), tail: Row = NO_TAIL) -> None:
        super().__init__(rows)
        self.tail = tail

    @classmethod
    def of(cls, rows: Iterable[Row]) -> "Block":
        return rows if type(rows) is cls else cls(rows)

    def folded(self) -> List[Row]:
        """The rows with the tail appended to each: the documents as rows
        (what JSON, which has no tail, is written from)."""
        keys, values = self.tail
        if not keys:
            return list(self)
        return [(k + keys, v + values) for k, v in self]

    def documents(self) -> List[dict]:
        return [dict(zip(*row)) for row in self.folded()]


_interned: Dict[tuple, tuple] = {}


class Learned(dict):
    """A dict that learns a missing key's value, once, from ``learn``
    (which must not hold the dict's owner: that is a reference cycle);
    the per-schema tables of the report path."""

    def __init__(self, learn: Callable[[Any], Any]) -> None:
        self.learn = learn

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.learn(key)
        return value


def document_row(document: dict) -> Row:
    """A JSON-style dict as a row (the one-document entries: a socket
    line, ``OpenSearchStore.index``)."""
    return tuple(document), tuple(tuple(v) if type(v) is list else v
                                  for v in document.values())


def _with_optional(keys: tuple, values: tuple, optional: tuple) -> Row:
    """A row whose trailing ``(key, value)`` fields are present only
    when the value is not ``None``."""
    present = [(k, v) for k, v in optional if v is not None]
    if not present:
        return keys, values
    keys = keys + tuple(k for k, _ in present)
    return _interned.setdefault(keys, keys), values + tuple(v for _, v in present)


class _Document:
    """What every report shares: its Report_v1 dict is its row's, and
    ``from_document`` rebuilds it from that dict as the archive hands it
    back."""

    def row(self) -> Row:
        raise NotImplementedError

    def to_document(self) -> dict:
        return dict(zip(*self.row()))

    @classmethod
    def from_document(cls, doc: dict) -> "_Document":
        """Each field from its document key, converted back where the
        row converted it (``_FROM_DOC``); a field the document lacks
        keeps its default."""
        kwargs = {}
        for name in _field_names(cls):
            key = _DOC_KEYS.get(name, name)
            if key in doc:
                convert = _FROM_DOC.get(name)
                kwargs[name] = doc[key] if convert is None else convert(doc[key])
        return cls(**kwargs)


@cache
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


#: A record field's document key, where it is not the field's name.
_DOC_KEYS = {"time_ns": "@timestamp", "src_ip": "source_ip", "dst_ip": "destination_ip",
             "src_port": "source_port", "dst_port": "destination_port"}


class ReportView:
    """One report stream of a control plane, which keeps no copy of it
    (docs/architecture.md, "Where a run's reports are kept"): ``len()``
    is the control plane's tally of the stream's rows handed to its
    sink; iteration rebuilds ``record``s from the archive that sink ends
    in, in archive order (none without one); ``[i]`` reads a list."""

    __slots__ = ("_cp", "type", "record")

    def __init__(self, cp: Any, doc_type: str, record: type) -> None:
        self._cp, self.type, self.record = cp, doc_type, record

    def __len__(self) -> int:
        return self._cp.tallies[self.type]

    def __iter__(self) -> Iterator:
        archive = self._cp.archive
        docs = () if archive is None else archive.documents(self.type)
        return map(self.record.from_document, docs)

    def __getitem__(self, item):
        return list(self)[item]

    def __repr__(self) -> str:
        return f"ReportView({self.type!r}, {len(self)} shipped)"


class LimiterVerdict(Enum):
    """§4.4 classification of what bounds a flow's throughput."""

    NETWORK_LIMITED = "network"
    SENDER_LIMITED = "sender"
    RECEIVER_LIMITED = "receiver"
    PROBING = "probing"      # flight still expanding, no losses yet
    UNKNOWN = "unknown"

    @property
    def is_endpoint(self) -> bool:
        return self in (LimiterVerdict.SENDER_LIMITED, LimiterVerdict.RECEIVER_LIMITED)


#: The way back from a document value the row converted.
_FROM_DOC = {"time_ns": lambda t: round(t * NS_PER_S), "src_ip": ip_to_int,
             "dst_ip": ip_to_int, "verdict": LimiterVerdict}


@dataclass
class FlowSample(_Document):
    """One per-flow measurement at one extraction instant."""

    time_ns: int
    metric: str                 # MetricKind.value
    flow_id: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    value: float                # metric units: bps / % / ms / %
    boosted: bool = False

    def row(self) -> Row:
        return FLOW_SAMPLE_KEYS, (
            f"p4_{self.metric}", self.time_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.src_port, self.dst_port, self.value, self.boosted)

    @classmethod
    def from_document(cls, doc: dict) -> "FlowSample":
        return super().from_document({**doc, "metric": doc["type"][len("p4_"):]})


FLOW_SAMPLE_KEYS = ("type", "@timestamp", "flow_id", "source_ip",
                    "destination_ip", "source_port", "destination_port",
                    "value", "boosted")


def flow_head(flow_id: int, src_ip: int, dst_ip: int) -> tuple:
    """``(flow_id, source_ip, destination_ip)``, the addresses as dotted
    quads: what every per-flow document leads with after its type and
    timestamp (the control plane resolves it once per tracked flow)."""
    return flow_id, int_to_ip(src_ip), int_to_ip(dst_ip)


@dataclass
class AggregateSample(_Document):
    """Control-plane-derived network-wide metrics (§5.3)."""

    time_ns: int
    link_utilization: float     # fraction of bottleneck capacity
    jain_fairness: float
    active_flows: int
    total_bytes: int
    total_packets: int

    KEYS = ("type", "@timestamp", "link_utilization", "jain_fairness",
            "active_flows", "total_bytes", "total_packets")

    def row(self) -> Row:
        return self.KEYS, ("p4_aggregate", self.time_ns / NS_PER_S,
                           self.link_utilization, self.jain_fairness,
                           self.active_flows, self.total_bytes,
                           self.total_packets)


@dataclass
class MicroburstEvent(_Document):
    """A data-plane-detected microburst, ns start time and duration."""

    start_ns: int
    duration_ns: int
    peak_queue_delay_ns: int
    peak_occupancy: float       # fraction of the full buffer
    packets: int
    port_id: int = 0            # which tapped egress queue

    KEYS = ("type", "@timestamp", "start_ns", "duration_ns",
            "peak_queue_delay_ns", "peak_occupancy", "packets", "port_id")

    def row(self) -> Row:
        return self.KEYS, ("p4_microburst", self.start_ns / NS_PER_S,
                           self.start_ns, self.duration_ns,
                           self.peak_queue_delay_ns, self.peak_occupancy,
                           self.packets, self.port_id)


@dataclass
class FlowTerminationReport(_Document):
    """The detailed terminated-long-flow report of §3.3.2: nanosecond
    start/end, totals, average throughput, retransmission count and %."""

    flow_id: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    start_ns: int
    end_ns: int
    total_packets: int
    total_bytes: int
    retransmissions: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def avg_throughput_bps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.total_bytes * 8 * NS_PER_S / self.duration_ns

    @property
    def retransmission_pct(self) -> float:
        if self.total_packets == 0:
            return 0.0
        return 100.0 * self.retransmissions / self.total_packets

    KEYS = ("type", "@timestamp", "flow_id", "source_ip", "destination_ip",
            "source_port", "destination_port", "start_ns", "end_ns",
            "duration_s", "total_packets", "total_bytes",
            "avg_throughput_bps", "retransmissions", "retransmission_pct")

    def row(self) -> Row:
        return self.KEYS, (
            "p4_flow_termination", self.end_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.src_port, self.dst_port, self.start_ns, self.end_ns, self.duration_ns / NS_PER_S,
            self.total_packets, self.total_bytes, self.avg_throughput_bps,
            self.retransmissions, self.retransmission_pct)


@dataclass
class Alert(_Document):
    """Raised when a metric crosses its administrator-set threshold."""

    time_ns: int
    metric: str
    flow_id: Optional[int]
    value: float
    threshold: float
    cleared: bool = False  # True when the alert condition ends

    KEYS = ("type", "@timestamp", "metric", "flow_id", "value", "threshold",
            "event")

    def row(self) -> Row:
        return self.KEYS, ("p4_alert", self.time_ns / NS_PER_S, self.metric,
                           self.flow_id, self.value, self.threshold,
                           "cleared" if self.cleared else "raised")


@dataclass
class HistogramReport(_Document):
    """Full distribution shipped at a histogram-extraction tick: the
    cumulative bin counts of one scope (a flow's RTT, a port's queue
    depth, or the all-flow merge) plus the bucket-upper-bound
    percentiles derived from them.  Archived as ``repro-histogram-v1``."""

    time_ns: int
    metric: str                  # "rtt" | "queue_depth"
    scope: str                   # "flow" | "port" | "all"
    edges_ns: List[int]          # shared bin upper bounds, nanoseconds
    counts: List[int]            # len(edges_ns) + 1, last = overflow
    count: int                   # total samples (== sum(counts))
    p50_ms: float
    p90_ms: float
    p99_ms: float
    p999_ms: float
    window_count: int = 0        # samples added since the previous tick
    flow_id: Optional[int] = None
    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    port_id: Optional[int] = None
    # Total-variation bin-mass shift against the previous window (only
    # meaningful on scope="all" reports; drives change-point alerts).
    shift: Optional[float] = None

    KEYS = ("type", "@timestamp", "metric", "scope", "edges_ns", "counts",
            "count", "window_count", "p50_ms", "p90_ms", "p99_ms", "p999_ms")

    def row(self) -> Row:
        return _with_optional(self.KEYS, (
            "repro-histogram-v1", self.time_ns / NS_PER_S, self.metric,
            self.scope, tuple(self.edges_ns), tuple(self.counts), self.count,
            self.window_count, self.p50_ms, self.p90_ms, self.p99_ms,
            self.p999_ms), (
            ("flow_id", self.flow_id),
            ("source_ip", None if self.src_ip is None else int_to_ip(self.src_ip)),
            ("destination_ip",
             None if self.dst_ip is None else int_to_ip(self.dst_ip)),
            ("port_id", self.port_id),
            ("shift", self.shift)))


@dataclass
class ForensicsReport(_Document):
    """Culprit attribution for one queue-trouble interval: the ranked
    flows whose packets occupied the queue during ``[t0_ns, t1_ns)``,
    decoded from the time-window queue-ancestry registers at the finest
    coarsening level that still covers the interval.  Shipped when a
    microburst or rtt_distribution alert fires (or on an explicit CLI
    query) and archived as ``repro-forensics-v1``."""

    time_ns: int
    trigger: str                 # "microburst" | "rtt_distribution" | "query"
    t0_ns: int
    t1_ns: int
    level: int                   # coarsening level the query resolved at
    window_width_ns: int         # window width at that level
    windows: int                 # non-empty windows inside the interval
    total_bytes: int             # byte mass across those windows
    # Ranked attributions, heaviest contributor first.  Each entry:
    # flow_id, bytes, packets, windows (windows the flow signed),
    # coverage (fraction of non-empty windows signed), share (fraction
    # of total_bytes), max_qdepth_ns, and source/destination ip/port
    # when the flow is still tracked.
    culprits: List[dict] = field(default_factory=list)
    victim_flow_id: Optional[int] = None
    port_id: Optional[int] = None

    KEYS = ("type", "@timestamp", "trigger", "t0_ns", "t1_ns", "level",
            "window_width_ns", "windows", "total_bytes", "culprits")

    def row(self) -> Row:
        # The row owns its culprit entries: the report keeps its own.
        return _with_optional(self.KEYS, (
            "repro-forensics-v1", self.time_ns / NS_PER_S, self.trigger,
            self.t0_ns, self.t1_ns, self.level, self.window_width_ns,
            self.windows, self.total_bytes,
            tuple(dict(c) for c in self.culprits)), (
            ("victim_flow_id", self.victim_flow_id),
            ("port_id", self.port_id)))


@dataclass
class LimiterReport(_Document):
    """Per-flow §4.4 verdict at one extraction instant."""

    time_ns: int
    flow_id: int
    src_ip: int
    dst_ip: int
    verdict: LimiterVerdict
    flight_bytes: float
    flight_cv: float
    loss_delta: int
    rwnd_bytes: int

    def row(self) -> Row:
        return LIMITER_KEYS, (
            "p4_limiter", self.time_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.verdict.value, self.flight_bytes, self.flight_cv,
            self.loss_delta, self.rwnd_bytes)


LIMITER_KEYS = ("type", "@timestamp", "flow_id", "source_ip",
                "destination_ip", "verdict", "flight_bytes", "flight_cv",
                "loss_delta", "rwnd_bytes")
