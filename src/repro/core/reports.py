"""Report structures (the 'Report_v1' of Fig. 7).

The control plane restructures raw register reads into these records and
ships them to the archiver pipeline as **runs**: a :class:`Run` is ``n``
documents of one schema, stored column-stride — one column per field
that varies across them, and each field they all share held once, with
every top-level list stored as a tuple (JSON has no tuples, so a run is
lossless for every document this system ships).  A tick's stream is one
run, built from the columns the tick already holds (the register sweep,
its values, the active flows); a lone document is a run of one.  A
report sink receives a :class:`Block`: runs in emission order, mixed
schemas in one list, plus one **tail** — the fields every document of
the block ends with, carried once per block.  The control plane ships an
empty tail; the shipper's envelope and Logstash's Report_v2 metadata are
appended to it, once per block, and the archive keeps each run as a
segment beside one copy of its block's tail.  Each report's field list
is defined once, here: a key tuple plus a run builder (``run()``, a run
of one); ``to_document()`` is its document, and ``from_document()`` /
``from_columns()`` the way back.  What the control plane shipped is read
back from the archive's columns through a :class:`ReportView`.

A run's numeric column is typed storage (:func:`typed`): an
``array('d')`` or ``array('q')``, 8 B a value, which reads back as plain
``float`` / ``int``; a column that is another one's values at some
positions (the identity of the flows a tick sampled) is a
:class:`Selection`.  Every other column is a list or a tuple.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from itertools import compress, repeat
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.netsim.packet import int_to_ip, ip_to_int
from repro.netsim.units import NS_PER_S


#: The fields every document of a block ends with: a key tuple and the
#: value tuple beside it (the one ``(keys, values)`` pair kept per block).
Row = Tuple[tuple, tuple]
#: The tail of a block that adds no field.
NO_TAIL: Row = ((), ())
#: What a column read holds for a document that lacks the field.
MISSING = object()


class Run:
    """``n`` documents of one schema, column-stride.  ``keys`` are their
    field names in document order (interned: the builders' constants
    are); ``values`` is aligned with ``keys`` and holds, at each position
    in ``cols``, that field's column (a sequence of ``n`` values), and at
    every other position the one value all ``n`` documents share.  A run
    of one is a document's ``keys`` and value tuple with no column.  A
    run is never changed once built: a layer that changes documents
    builds a new run, which may share the old one's columns."""

    __slots__ = ("keys", "values", "cols", "n")

    def __init__(self, keys: tuple, values: tuple, cols: tuple = (), n: int = 1) -> None:
        self.keys, self.values, self.cols, self.n = keys, values, cols, n

    def at(self, name: str) -> Optional[int]:
        """``name``'s position in ``keys``, or ``None``."""
        keys = self.keys
        return keys.index(name) if name in keys else None

    def column(self, name: str, default: Any = None, tail: Row = NO_TAIL) -> list:
        """``document.get(name, default)`` of each document, read off
        the run and then off the tail of its block."""
        p = self.at(name)
        if p is not None:
            values = self.values[p]
            return list(values) if p in self.cols else [values] * self.n
        keys, values = tail
        return [values[keys.index(name)] if name in keys else default] * self.n

    def rows(self) -> List[tuple]:
        """Each document's value tuple (what JSON is written from)."""
        n, cols = self.n, self.cols
        if not cols:
            return [self.values] * n
        return list(zip(*(v if p in cols else repeat(v, n) for p, v in enumerate(self.values))))

    def select(self, keep: Sequence[bool]) -> Optional["Run"]:
        """The documents whose ``keep`` (a list or a numpy array of bools)
        is true, as a run (``None``: none).  Each column keeps its kind: a
        numpy column stays one, a typed column stays typed, and
        selections that shared their positions share the kept ones."""
        mask = np.asarray(keep, dtype=bool)
        n = int(np.count_nonzero(mask))
        if n == self.n:
            return self
        if not n:
            return None
        kept: Dict[int, array] = {}

        def pick(column):
            kind = type(column)
            if kind is np.ndarray:
                return column[mask]
            if kind is array:
                return _kept(column, mask)
            if kind is Selection:
                at = kept.get(id(column.at))
                if at is None:
                    at = kept[id(column.at)] = _kept(column.at, mask)
                return Selection(column.base, at)
            return list(compress(column, keep))

        cols = self.cols
        return Run(self.keys, tuple(pick(v) if p in cols else v
                                    for p, v in enumerate(self.values)), cols, n)

    def sliced(self, start: int) -> "Run":
        """The documents from ``start`` on."""
        cols = self.cols
        return Run(self.keys, tuple(v[start:] if p in cols else v
                                    for p, v in enumerate(self.values)),
                   cols, self.n - start)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return self.keys == other.keys and self.rows() == other.rows()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Run({self.keys!r}, n={self.n})"


class Selection(_SequenceABC):
    """A column that is ``base``'s values at the positions ``at`` (an
    ``array('I')``): what a run over some of a control plane's flows
    keeps of their identity, 4 B a document, sharing ``base`` with every
    other run.  ``base`` only ever grows at its end, so what a selection
    reads never changes.  Reads hand out ``base``'s own values."""

    __slots__ = ("base", "at")

    def __init__(self, base: Sequence, at: array) -> None:
        self.base, self.at = base, at

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, i):
        if type(i) is slice:
            return Selection(self.base, self.at[i])
        return self.base[self.at[i]]

    def __iter__(self) -> Iterator:
        return map(self.base.__getitem__, self.at)


_TYPECODES = {np.dtype(np.float64): "d", np.dtype(np.int64): "q"}


def typed(column: Sequence) -> Sequence:
    """A column as a run keeps it: ``array('d')`` where every value is a
    float, ``array('q')`` where every value is an int in 64 bits (a
    ``bool`` is not one), else a tuple.  A numpy column is copied as it
    is stored: float64 and int64 ones without a value boxed."""
    dtype = getattr(column, "dtype", None)
    if dtype is not None:
        code = _TYPECODES.get(dtype)
        if code is None:
            return tuple(column.tolist())
        return array(code, column.tobytes())
    kinds = set(map(type, column))
    if kinds == {float}:
        return array("d", column)
    if kinds == {int}:
        try:
            return array("q", column)
        except OverflowError:       # beyond 64 bits
            pass
    return tuple(column)


def _kept(column: array, mask: np.ndarray) -> array:
    """A typed column's values where ``mask`` is true, in its typecode."""
    code = column.typecode
    return array(code, np.frombuffer(column, code)[mask].tobytes())


class Block(list):
    """What a report sink receives: runs in emission order, and the
    ``tail`` every document ends with — a document is its run's fields
    followed by the tail's.  A tail's keys are none of its runs' keys.
    A layer that adds a field every document shares sets it in a new
    block's tail, once: the runs, and the caller's block, are never
    copied per document."""

    __slots__ = ("tail",)

    def __init__(self, runs: Iterable[Run] = (), tail: Row = NO_TAIL) -> None:
        super().__init__(runs)
        self.tail = tail

    @property
    def size(self) -> int:
        """How many documents the block carries."""
        return sum(run.n for run in self)

    def folded(self) -> List[Row]:
        """Each document as a ``(keys, values)`` pair, the tail appended:
        what JSON, which has no runs and no tail, is written from."""
        tail_keys, tail_values = self.tail
        return [(run.keys + tail_keys, values + tail_values)
                for run in self for values in run.rows()]

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


def document_run(document: dict) -> Run:
    """A JSON-style dict as a run of one (the one-document entries: a
    socket line, a pscheduler result, ``OpenSearchStore.index``)."""
    return Run(tuple(document), tuple(tuple(v) if type(v) is list else v
                                      for v in document.values()))


def _with_optional(keys: tuple, values: tuple, optional: tuple) -> Run:
    """A run of one whose trailing ``(key, value)`` fields are present
    only when the value is not ``None``."""
    present = [(k, v) for k, v in optional if v is not None]
    if not present:
        return Run(keys, values)
    keys = keys + tuple(k for k, _ in present)
    return Run(_interned.setdefault(keys, keys), values + tuple(v for _, v in present))


class _Document:
    """What every report shares: its Report_v1 document is its run of
    one's, and ``from_document`` / ``from_columns`` rebuild it from what
    the archive hands back."""

    def run(self) -> Run:
        raise NotImplementedError

    def to_document(self) -> dict:
        run = self.run()
        return dict(zip(run.keys, run.values))

    @classmethod
    def _sources(cls) -> Tuple[Tuple[str, str, Optional[Callable]], ...]:
        """Per field: its name, its document key and the way back from
        the document's value (``None``: the value itself)."""
        return _field_sources(cls)

    @classmethod
    def from_document(cls, doc: dict) -> "_Document":
        """Each field from its document key, converted back where the
        run converted it; a field the document lacks keeps its default."""
        return cls(**{name: doc[key] if convert is None else convert(doc[key])
                      for name, key, convert in cls._sources() if key in doc})

    @classmethod
    def from_columns(cls, read: Callable[[Sequence[str]], List[list]]) -> Iterator:
        """The records of a column read: ``read(keys)`` returns one list
        per key, :data:`MISSING` where a document lacks it.  Where no
        document lacks a field, the records are built column-wise."""
        sources = cls._sources()
        columns = read(tuple(key for _, key, _ in sources))
        if not any(MISSING in column for column in columns):
            return map(cls, *(column if convert is None else _converted(column, convert)
                              for (_, _, convert), column in zip(sources, columns)))
        keys = [key for _, key, _ in sources]
        return (cls.from_document({k: v for k, v in zip(keys, values) if v is not MISSING})
                for values in zip(*columns))


def _converted(column: list, convert: Callable) -> Iterator:
    """``map(convert, column)``, converting each distinct value once (a
    column repeats a tick's time and a flow's addresses)."""
    try:
        table = {value: convert(value) for value in dict.fromkeys(column)}
    except TypeError:        # an unhashable value
        return map(convert, column)
    return map(table.__getitem__, column)


@cache
def _field_sources(cls: type) -> Tuple[Tuple[str, str, Optional[Callable]], ...]:
    return tuple((f.name, _DOC_KEYS.get(f.name, f.name), _FROM_DOC.get(f.name))
                 for f in fields(cls))


#: A record field's document key, where it is not the field's name.
_DOC_KEYS = {"time_ns": "@timestamp", "src_ip": "source_ip", "dst_ip": "destination_ip",
             "src_port": "source_port", "dst_port": "destination_port"}


class ReportView:
    """One report stream of a control plane, which keeps no copy of it
    (docs/architecture.md, "Where a run's reports are kept"): ``len()``
    is the control plane's tally of the stream's documents handed to its
    sink; iteration rebuilds ``record``s from the columns of the archive
    that sink ends in, in archive order (none without one); ``[i]``
    reads a list."""

    __slots__ = ("_cp", "type", "record")

    def __init__(self, cp: Any, doc_type: str, record: type) -> None:
        self._cp, self.type, self.record = cp, doc_type, record

    def __len__(self) -> int:
        return self._cp.tallies[self.type]

    def __iter__(self) -> Iterator:
        archive = self._cp.archive
        if archive is None:
            return iter(())
        return self.record.from_columns(lambda keys: archive.columns(self.type, keys))

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


#: The way back from a document value the run converted.
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

    def run(self) -> Run:
        return Run(FLOW_SAMPLE_KEYS, (
            f"p4_{self.metric}", self.time_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.src_port, self.dst_port, self.value, self.boosted))

    @classmethod
    def _sources(cls) -> Tuple[Tuple[str, str, Optional[Callable]], ...]:
        # ``metric`` is the document's type without its ``p4_``.
        return tuple((name, "type", _metric_of) if name == "metric" else (name, key, convert)
                     for name, key, convert in _field_sources(cls))


def _metric_of(doc_type: str) -> str:
    return doc_type[len("p4_"):]


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

    def run(self) -> Run:
        return Run(self.KEYS, ("p4_aggregate", self.time_ns / NS_PER_S,
                               self.link_utilization, self.jain_fairness,
                               self.active_flows, self.total_bytes,
                               self.total_packets))


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

    def run(self) -> Run:
        return Run(self.KEYS, ("p4_microburst", self.start_ns / NS_PER_S,
                               self.start_ns, self.duration_ns,
                               self.peak_queue_delay_ns, self.peak_occupancy,
                               self.packets, self.port_id))


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

    def run(self) -> Run:
        return Run(self.KEYS, (
            "p4_flow_termination", self.end_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.src_port, self.dst_port, self.start_ns, self.end_ns, self.duration_ns / NS_PER_S,
            self.total_packets, self.total_bytes, self.avg_throughput_bps,
            self.retransmissions, self.retransmission_pct))


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

    def run(self) -> Run:
        return Run(self.KEYS, ("p4_alert", self.time_ns / NS_PER_S, self.metric,
                               self.flow_id, self.value, self.threshold,
                               "cleared" if self.cleared else "raised"))


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

    def run(self) -> Run:
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

    def run(self) -> Run:
        # The run owns its culprit entries: the report keeps its own.
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

    def run(self) -> Run:
        return Run(LIMITER_KEYS, (
            "p4_limiter", self.time_ns / NS_PER_S,
            *flow_head(self.flow_id, self.src_ip, self.dst_ip),
            self.verdict.value, self.flight_bytes, self.flight_cv,
            self.loss_delta, self.rwnd_bytes))


LIMITER_KEYS = ("type", "@timestamp", "flow_id", "source_ip",
                "destination_ip", "verdict", "flight_bytes", "flight_cv",
                "loss_delta", "rwnd_bytes")
