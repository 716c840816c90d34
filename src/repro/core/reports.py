"""Report structures (the 'Report_v1' of Fig. 7).

The control plane restructures raw register reads into these records and
ships them to the archiver pipeline.  ``to_document()`` produces the
JSON-style dict that the Logstash TCP input plugin ingests.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional

from repro.netsim.packet import int_to_ip
from repro.netsim.units import NS_PER_S


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


@dataclass
class FlowSample:
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

    def to_document(self) -> dict:
        return flow_sample_document(f"p4_{self.metric}", self.time_ns / NS_PER_S,
                                    *astuple(self)[2:])


def flow_sample_document(doc_type: str, timestamp_s: float, flow_id: int,
                         src_ip: int, dst_ip: int, src_port: int,
                         dst_port: int, value: float, boosted: bool) -> dict:
    """The Report_v1 document of one per-flow sample (the control plane
    passes a tick's shared type and timestamp)."""
    return {
        "type": doc_type,
        "@timestamp": timestamp_s,
        "flow_id": flow_id,
        "source_ip": int_to_ip(src_ip),
        "destination_ip": int_to_ip(dst_ip),
        "source_port": src_port,
        "destination_port": dst_port,
        "value": value,
        "boosted": boosted,
    }


class FlowSampleLog:
    """A per-flow report stream kept as rows: ``rows`` holds one plain
    tuple per report, in the field order of its dataclass ``record``
    (:class:`FlowSample`; :class:`LimiterReport` for
    ``cp.limiter_reports``) — untracked by the cyclic collector once it
    has seen it unless it holds an ``Enum`` member, which a dataclass
    instance never is (docs/scaling.md, "Allocation discipline") — and a
    ``record`` is built when somebody reads one.  Supports what the list
    it replaces was used for: ``len``, truthiness, iteration, ``[i]``,
    slices, ``==`` with a list or a log, ``append``, ``clear``."""

    __slots__ = ("rows", "record", "_row")

    def __init__(self, samples: Iterable = (), record: type = FlowSample) -> None:
        self.record = record
        self._row = attrgetter(*(f.name for f in fields(record)))
        self.rows: List[tuple] = [self._row(s) for s in samples]

    def append(self, sample) -> None:
        self.rows.append(self._row(sample))

    def clear(self) -> None:
        self.rows.clear()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator:
        return starmap(self.record, self.rows)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return list(starmap(self.record, self.rows[item]))
        return self.record(*self.rows[item])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlowSampleLog):
            return self.rows == other.rows
        return list(self) == other


@dataclass
class AggregateSample:
    """Control-plane-derived network-wide metrics (§5.3)."""

    time_ns: int
    link_utilization: float     # fraction of bottleneck capacity
    jain_fairness: float
    active_flows: int
    total_bytes: int
    total_packets: int

    def to_document(self) -> dict:
        return {
            "type": "p4_aggregate",
            "@timestamp": self.time_ns / NS_PER_S,
            "link_utilization": self.link_utilization,
            "jain_fairness": self.jain_fairness,
            "active_flows": self.active_flows,
            "total_bytes": self.total_bytes,
            "total_packets": self.total_packets,
        }


@dataclass
class MicroburstEvent:
    """A data-plane-detected microburst, ns start time and duration."""

    start_ns: int
    duration_ns: int
    peak_queue_delay_ns: int
    peak_occupancy: float       # fraction of the full buffer
    packets: int
    port_id: int = 0            # which tapped egress queue

    def to_document(self) -> dict:
        return {
            "type": "p4_microburst",
            "@timestamp": self.start_ns / NS_PER_S,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "peak_queue_delay_ns": self.peak_queue_delay_ns,
            "peak_occupancy": self.peak_occupancy,
            "packets": self.packets,
            "port_id": self.port_id,
        }


@dataclass
class FlowTerminationReport:
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

    def to_document(self) -> dict:
        return {
            "type": "p4_flow_termination",
            "@timestamp": self.end_ns / NS_PER_S,
            "flow_id": self.flow_id,
            "source_ip": int_to_ip(self.src_ip),
            "destination_ip": int_to_ip(self.dst_ip),
            "source_port": self.src_port,
            "destination_port": self.dst_port,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_s": self.duration_ns / NS_PER_S,
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
            "avg_throughput_bps": self.avg_throughput_bps,
            "retransmissions": self.retransmissions,
            "retransmission_pct": self.retransmission_pct,
        }


@dataclass
class Alert:
    """Raised when a metric crosses its administrator-set threshold."""

    time_ns: int
    metric: str
    flow_id: Optional[int]
    value: float
    threshold: float
    cleared: bool = False  # True when the alert condition ends

    def to_document(self) -> dict:
        return {
            "type": "p4_alert",
            "@timestamp": self.time_ns / NS_PER_S,
            "metric": self.metric,
            "flow_id": self.flow_id,
            "value": self.value,
            "threshold": self.threshold,
            "event": "cleared" if self.cleared else "raised",
        }


@dataclass
class HistogramReport:
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

    def to_document(self) -> dict:
        doc = {
            "type": "repro-histogram-v1",
            "@timestamp": self.time_ns / NS_PER_S,
            "metric": self.metric,
            "scope": self.scope,
            "edges_ns": list(self.edges_ns),
            "counts": list(self.counts),
            "count": self.count,
            "window_count": self.window_count,
            "p50_ms": self.p50_ms,
            "p90_ms": self.p90_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
        }
        if self.flow_id is not None:
            doc["flow_id"] = self.flow_id
        if self.src_ip is not None:
            doc["source_ip"] = int_to_ip(self.src_ip)
        if self.dst_ip is not None:
            doc["destination_ip"] = int_to_ip(self.dst_ip)
        if self.port_id is not None:
            doc["port_id"] = self.port_id
        if self.shift is not None:
            doc["shift"] = self.shift
        return doc


@dataclass
class ForensicsReport:
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

    def to_document(self) -> dict:
        doc = {
            "type": "repro-forensics-v1",
            "@timestamp": self.time_ns / NS_PER_S,
            "trigger": self.trigger,
            "t0_ns": self.t0_ns,
            "t1_ns": self.t1_ns,
            "level": self.level,
            "window_width_ns": self.window_width_ns,
            "windows": self.windows,
            "total_bytes": self.total_bytes,
            "culprits": [dict(c) for c in self.culprits],
        }
        if self.victim_flow_id is not None:
            doc["victim_flow_id"] = self.victim_flow_id
        if self.port_id is not None:
            doc["port_id"] = self.port_id
        return doc


@dataclass
class LimiterReport:
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

    def to_document(self) -> dict:
        return limiter_document(*astuple(self))


def limiter_document(time_ns: int, flow_id: int, src_ip: int, dst_ip: int,
                     verdict: LimiterVerdict, flight_bytes: float,
                     flight_cv: float, loss_delta: int, rwnd_bytes: int) -> dict:
    """The Report_v1 document of one limiter report, from its row."""
    return {
        "type": "p4_limiter",
        "@timestamp": time_ns / NS_PER_S,
        "flow_id": flow_id,
        "source_ip": int_to_ip(src_ip),
        "destination_ip": int_to_ip(dst_ip),
        "verdict": verdict.value,
        "flight_bytes": flight_bytes,
        "flight_cv": flight_cv,
        "loss_delta": loss_delta,
        "rwnd_bytes": rwnd_bytes,
    }
