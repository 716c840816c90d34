"""The switch control plane (Fig. 4/5b).

Responsibilities, as the paper assigns them:

- learn flows from the data plane's ``long_flow`` digests;
- extract each metric class from the registers at its configured interval
  (t_N bytes, t_P losses, t_R RTT, t_Q queue occupancy), at the boosted
  rate while an alert is active;
- derive throughput (bits / reporting duration), loss percentage, queue
  occupancy (delay / full-buffer drain time), link utilisation, Jain's
  fairness and active-flow counts (§4.1, §4.2, §5.3);
- run the §4.4 limiter classification over flight-size/loss history;
- turn ``flow_termination`` digests into the detailed long-flow report of
  §3.3.2 and ``microburst`` digests into nanosecond burst events;
- ship every record to the report sink (the perfSONAR archiver pipeline).

It keeps no copy of what it shipped: ``tallies`` counts the documents
handed to the sink per Report_v1 type, and each report stream it exposes
(``flow_samples[kind]``, ``terminations``, ...) is a
:class:`~repro.core.reports.ReportView` over the archive the sink ends
in (``archive``).

Every periodic extraction — the four metric classes, plus the histogram
and forensics extractors when the data plane has their externs — is one
job of ``MonitorControlPlane.schedule`` and runs through the one
``_tick`` envelope (docs/architecture.md §3).  A tick ships one block:
each stream its body produces is one :class:`~repro.core.reports.Run`,
built from the columns the tick already holds (the register sweep, the
values, the active flows' identities), and every run reaches the report
sink in one call when the body returns.

A flow's extraction state (its last counter reads, idle count, last
RTT, jitter and verdict) is a row of :class:`FlowState`'s numpy columns,
so a tick body is array operations over the register sweep; its numbers
stay typed into the run (:func:`~repro.core.reports.typed`), and a run's
identity columns select from the flows' identity table
(:class:`~repro.core.reports.Selection`).  :class:`TrackedFlow` reads
its row.
"""

from __future__ import annotations

from collections import Counter
from array import array
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import compress
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.telemetry import hooks
from repro.netsim.engine import Event, Simulator
from repro.netsim.units import NS_PER_S, seconds
from repro.core.alerts import AlertManager
from repro.core.config import MetricKind, MonitorConfig
from repro.core.limiter import NO_RULE, RULE_VERDICTS, LimiterClassifier
from repro.core.monitor import P4Monitor
from repro.core.reports import (
    FLOW_SAMPLE_KEYS,
    LIMITER_KEYS,
    AggregateSample,
    Block,
    FlowSample,
    FlowTerminationReport,
    ForensicsReport,
    HistogramReport,
    LimiterReport,
    MicroburstEvent,
    ReportView,
    Run,
    Selection,
    flow_head,
    typed,
)
from repro.core.stats import (int_sum, jain_fairness, jitter_step, link_utilization,
                              loss_pct, throughput_bps)

if TYPE_CHECKING:
    from repro.core.forensics import ForensicsExtractor
    from repro.core.histograms import HistogramExtractor

#: Receives one :class:`~repro.core.reports.Block` per call: a tick's runs,
#: or a digest handler's report as a run of one.
ReportSink = Callable[[Block], None]

#: The per-flow positions of a FlowSample / LimiterReport run: the flow's
#: identity, then what the tick read.
_SAMPLE_COLS = (2, 3, 4, 5, 6, 7)
_LIMITER_COLS = (2, 3, 4, 5, 6, 7, 8, 9)
#: A limiter rule's verdict as documents carry it.
_VERDICT_VALUES = tuple(verdict.value for verdict in RULE_VERDICTS)
#: The per-flow document types degraded mode suppresses, and the report
#: each is counted as in ``suppressed``.
_PER_FLOW = {**{"p4_" + kind.value: "FlowSample" for kind in MetricKind},
             "p4_jitter": "FlowSample", "p4_limiter": "LimiterReport"}


@dataclass
class _Job:
    """One row of the extraction schedule."""

    name: str
    body: Callable[[], None]
    base_interval_ns: Callable[[], int]  # before the degraded-mode scale
    timer: Optional[Event] = None


class FlowState:
    """The per-flow extraction state of one control plane: a row per
    :class:`TrackedFlow` it made (never reused), in numpy columns a tick
    computes on, beside ``identity`` — the five identity fields every
    per-flow document leads with (flow_id, the dotted quads, the ports),
    one list each, which a tick's runs select from and which only grow."""

    #: Column -> (dtype, a new row's value).  ``last_rtt_ms`` is NaN
    #: before the flow's first RTT sample; ``verdict`` is a limiter rule
    #: (an index of ``RULE_VERDICTS``).
    COLUMNS = {"last_bytes": (np.int64, 0), "last_pkts": (np.int64, 0),
               "last_loss": (np.int64, 0), "idle_intervals": (np.int64, 0),
               "last_throughput_bps": (np.float64, 0.0),
               "last_rtt_ms": (np.float64, np.nan), "jitter_ms": (np.float64, 0.0),
               "verdict": (np.int64, NO_RULE)}

    def __init__(self) -> None:
        self.rows = 0
        for name, (dtype, fill) in self.COLUMNS.items():
            setattr(self, name, np.full(64, fill, dtype))
        self.identity: Tuple[list, ...] = tuple([] for _ in range(5))

    def add(self, head: tuple) -> int:
        """A new row, holding a new flow's state and identity ``head``."""
        row = self.rows
        if row == len(self.last_bytes):
            for name, (dtype, fill) in self.COLUMNS.items():
                column = getattr(self, name)
                setattr(self, name, np.concatenate((column, np.full(len(column), fill, dtype))))
        for column, value in zip(self.identity, head):
            column.append(value)
        self.rows = row + 1
        return row


def _state_field(name: str, decode: Callable = None, encode: Callable = None) -> property:
    """A :class:`TrackedFlow` attribute that is its row of a
    :class:`FlowState` column, read as a plain Python value."""

    def get(flow: "TrackedFlow"):
        value = getattr(flow.state, name)[flow.row].item()
        return value if decode is None else decode(value)

    def put(flow: "TrackedFlow", value) -> None:
        getattr(flow.state, name)[flow.row] = value if encode is None else encode(value)

    return property(get, put)


@dataclass(eq=False)
class TrackedFlow:
    """Control-plane record of one data-plane-announced long flow: its
    identity here, its extraction state in row ``row`` of ``state``."""

    flow_id: int
    rev_flow_id: int
    slot: int       # flow_id's and rev_flow_id's cells, as announced
    rslot: int      # (``rtt`` sits under rslot: Algorithm 1's ACK ID)
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    first_seen_ns: int
    state: FlowState = field(repr=False)
    terminated: bool = False
    # The control plane released the register slot, clearing its counters:
    # at once for an idle flow; for one that ended with FIN/RST only after
    # it has also been quiet that long, so the register totals of a flow
    # that just finished stay comparable against ground truth.
    evicted: bool = False
    row: int = field(init=False)

    last_bytes = _state_field("last_bytes")
    last_pkts = _state_field("last_pkts")
    last_loss = _state_field("last_loss")
    last_throughput_bps = _state_field("last_throughput_bps")
    idle_intervals = _state_field("idle_intervals")
    verdict = _state_field("verdict", RULE_VERDICTS.__getitem__, RULE_VERDICTS.index)
    last_rtt_ms = _state_field("last_rtt_ms", lambda ms: None if ms != ms else ms,
                               lambda ms: np.nan if ms is None else ms)
    jitter_ms = _state_field("jitter_ms")   # RFC 3550 smoothed inter-sample variation

    def __post_init__(self) -> None:
        self.row = self.state.add((*flow_head(self.flow_id, self.src_ip, self.dst_ip),
                                   self.src_port, self.dst_port))

    def record(self) -> dict:
        """Every field, the extraction state's as plain values: what a
        checkpoint writes and what two flows are equal in."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("state", "row")}
        doc.update((name, getattr(self, name)) for name in STATE_FIELDS)
        return doc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackedFlow):
            return NotImplemented
        return self.record() == other.record()

    __hash__ = None  # type: ignore[assignment]


#: The :class:`TrackedFlow` attributes its :class:`FlowState` row holds.
STATE_FIELDS = tuple(FlowState.COLUMNS)


@dataclass
class _FlowSet:
    """Tracked flows in table order and their columns: what a tick reads
    (rebuilt only when the set changes)."""

    flows: List[TrackedFlow]
    rows: np.ndarray
    slots: np.ndarray
    rslots: np.ndarray
    flow_ids: List[int]
    #: The flows' identity columns as selections of ``FlowState.identity``.
    heads: tuple


class MonitorControlPlane:
    """Periodic extraction + processing + report shipping."""

    def __init__(
        self,
        sim: Simulator,
        monitor: P4Monitor,
        config: Optional[MonitorConfig] = None,
        report_sink: Optional[ReportSink] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.config = config or monitor.config
        self.runtime = monitor.runtime()
        self.report_sink = report_sink
        # The open tick's block (``None`` outside a tick) and, under a
        # tracer, its documents' trace ids (``_put``).
        self._block: Optional[Block] = None
        self._ids: List[int] = []

        self.flows: Dict[int, TrackedFlow] = {}
        self._state = FlowState()
        # The active and the ended-but-unreleased flows (``None``: the
        # flow set changed since they were last built).
        self._sets: Optional[Tuple[_FlowSet, _FlowSet]] = None
        self.alerts = AlertManager(self.config)
        self.limiter = LimiterClassifier(self.config)

        #: Documents handed to the report sink, per Report_v1 type (0 with
        #: no sink; one suppressed while degraded is not counted).
        self.tallies: Counter = Counter()
        # The report streams, read back from the archive (no copy kept).
        view = partial(ReportView, self)
        self.flow_samples = {k: view(f"p4_{k.value}", FlowSample) for k in MetricKind}
        self.jitter_samples = view("p4_jitter", FlowSample)
        self.aggregate_samples = view("p4_aggregate", AggregateSample)
        self.microbursts = view("p4_microburst", MicroburstEvent)
        self.terminations = view("p4_flow_termination", FlowTerminationReport)
        self.limiter_reports = view("p4_limiter", LimiterReport)
        self.histogram_reports = view("repro-histogram-v1", HistogramReport)
        self.forensics_reports = view("repro-forensics-v1", ForensicsReport)

        self._running = False

        # Resilience state, one record per job of the extraction
        # schedule (the table is built below, once the extractors exist).
        # ``last_extraction_ns`` is when each job actually last ran (rates
        # window over real elapsed time, not the configured interval, so
        # a stalled tick cannot mis-window throughput); deferred ticks
        # consolidate into one bounded catch-up tick.  ``degraded``
        # collapses per-flow shipping to the aggregate stream and widens
        # intervals by ``interval_scale`` (driven by the delivery circuit
        # breaker).
        self._faults = hooks.injector
        self.last_extraction_ns: Dict[str, int] = {}
        self.ticks_deferred: Dict[str, int] = {}
        self.catchup_ticks: Dict[str, int] = {}
        #: Extraction cycles run (bodies entered, catch-ups included).
        self.ticks_run: Dict[str, int] = {}
        self._deferred_pending: set = set()
        self.degraded = False
        self._interval_scale = 1.0
        #: Reports suppressed while degraded, by report type.
        self.suppressed: Dict[str, int] = {}

        # Checkpointing (construction-time binding, same contract as the
        # fault injector above): when a CheckpointManager is installed,
        # every destructive step — extraction ticks that flip/clear
        # read-flip banks, digest consumption — ends with an ``on_tick``
        # so the latest checkpoint always covers everything this process
        # has irreversibly taken from the data plane.
        self._ckpt = hooks.checkpoints
        # Set by a checkpoint restore before start(): extraction cursors
        # of the dead incarnation, so the first post-restart tick windows
        # over the true elapsed time (one bounded catch-up window).
        self._resume_cursors: Optional[Dict[str, int]] = None

        # Digest subscription lives in start()/stop(), not here: while
        # no control plane is subscribed (construction, or crash-to-
        # restart downtime) digests backlog in the data plane and replay
        # into whoever subscribes next.
        self._digest_receivers = (
            ("long_flow", self._on_long_flow),
            ("flow_termination", self._on_termination),
            ("microburst", self._on_microburst),
        )
        self._subscribed = False

        # Provenance: per-flow register extractions resolve the packet
        # that last wrote the slot, and shipped reports inherit that
        # trace id on their way through Logstash to the archive.
        self._trace = hooks.tracer

        # The extraction schedule.  Arming order is table order — the four
        # metric classes in enum order, then histograms, then forensics —
        # so same-instant ticks always fire in the same FIFO order.  The
        # two extractors bind at construction like every other optional
        # subsystem: present, and imported, only when the data plane
        # built their externs.
        self.schedule: Dict[str, _Job] = {}
        for kind, body in ((MetricKind.THROUGHPUT, self._tick_throughput),
                           (MetricKind.PACKET_LOSS, self._tick_loss),
                           (MetricKind.RTT, self._tick_rtt),
                           (MetricKind.QUEUE_OCCUPANCY, self._tick_queue)):
            self._add_job(kind.value, body,
                          lambda kind=kind: self._metric_interval_ns(kind))
        self.histograms: Optional[HistogramExtractor] = None
        if monitor.rtt_loss.rtt_hist is not None:
            from repro.core.histograms import HistogramExtractor
            self.histograms = HistogramExtractor(self)
            self._add_job("histograms", self.histograms.extract, lambda: seconds(
                1.0 / self.config.histogram_samples_per_second))
        self.forensics: Optional[ForensicsExtractor] = None
        if monitor.queue.time_windows is not None:
            from repro.core.forensics import ForensicsExtractor
            self.forensics = ForensicsExtractor(self)
            self._add_job("forensics", self.forensics.extract, lambda: seconds(
                1.0 / self.config.forensics_samples_per_second))

        # Profiling: each extraction tick body runs inside a
        # ``cp.extract/<metric>`` phase frame so register-read cost is
        # attributed separately from packet-path work.
        self._prof = hooks.phases()

        # Telemetry reads the tallies above at snapshot time; the wall
        # time of a tick is the profiler's ``cp.extract/<job>`` frame.
        telemetry.reads(self, counters=[
            ("repro_cp_extraction_cycles_total",
             "extraction cycles run, per extraction job", ("metric",),
             lambda: self.ticks_run),
            ("repro_cp_reports_total", "reports shipped to the sink, by document type",
             ("type",), lambda: self.tallies),
            ("repro_cp_tick_deferred_total",
             "extraction ticks deferred by an injected control-plane stall, "
             "per extraction job", ("metric",), lambda: self.ticks_deferred),
            ("repro_cp_tick_catchup_total",
             "consolidated catch-up extraction ticks run after a stall, per "
             "extraction job", ("metric",), lambda: self.catchup_ticks),
            ("repro_cp_reports_suppressed_total",
             "per-flow reports suppressed while degraded, by report type",
             ("type",), lambda: self.suppressed),
            ("repro_cp_alert_transitions_total",
             "alert raise/clear transitions per metric class",
             ("metric", "transition"), lambda: Counter(
                 (a.metric, "cleared" if a.cleared else "raised")
                 for a in self.alerts.history)),
        ], gauges=[
            ("repro_cp_register_reads",
             "runtime API register read calls issued by the control plane",
             (), lambda: self.runtime.register_reads),
            ("repro_cp_active_alerts", "alerts currently held active, per metric class",
             ("metric",), lambda: {**dict.fromkeys((k.value for k in MetricKind), 0),
                                   **Counter(a.metric for a in self.alerts.active_alerts)}),
            ("repro_cp_degraded",
             "1 while the control plane is in degraded reporting mode",
             (), lambda: 1 if self.degraded else 0),
        ])

    # -- lifecycle and the extraction schedule -------------------------------------

    def _add_job(self, name: str, body: Callable[[], None],
                 base_interval_ns: Callable[[], int]) -> None:
        self.schedule[name] = _Job(name, body, base_interval_ns)
        self.ticks_deferred[name] = 0
        self.catchup_ticks[name] = 0
        self.ticks_run[name] = 0

    def _metric_interval_ns(self, kind: MetricKind) -> int:
        return self.config.metric(kind).interval_ns(
            boosted=self.alerts.metric_boosted(kind))

    def interval_ns(self, name: str) -> int:
        """Interval job ``name`` is armed at: its base interval widened
        by the degraded-mode scale."""
        base = self.schedule[name].base_interval_ns()
        return max(1, int(base * self._interval_scale))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        resume, self._resume_cursors = self._resume_cursors or {}, None
        for job in self.schedule.values():
            self.last_extraction_ns[job.name] = resume.get(job.name, self.sim.now)
            self._arm(job)
        # Subscribe last: backlogged digests (e.g. terminations emitted
        # while no control plane was alive) replay synchronously here,
        # against fully-restored state.
        if not self._subscribed:
            self._subscribed = True
            for name, receiver in self._digest_receivers:
                self.runtime.subscribe_digest(name, receiver)

    def stop(self) -> None:
        self._running = False
        for job in self.schedule.values():
            if job.timer is not None:
                job.timer.cancel()
                job.timer = None
        if self._subscribed:
            self._subscribed = False
            for name, receiver in self._digest_receivers:
                self.runtime.unsubscribe_digest(name, receiver)

    def _arm(self, job: _Job) -> None:
        # Cancel-first: set_degraded can re-arm mid-tick, after which the
        # normal end-of-tick re-arm would double the timer.
        if job.timer is not None:
            job.timer.cancel()
        job.timer = self.sim.after(self.interval_ns(job.name), self._tick, job)

    def _tick(self, job: _Job) -> None:
        """The one envelope around every extraction body."""
        if not self._running:
            return
        name = job.name
        # Batched data plane: everything mirrored before this tick must
        # be in the registers before we read them.
        self.monitor.flush()
        if self._faults is not None and self._faults.cp_tick_stalled(name):
            # A stalled extractor does not read registers this interval;
            # the deltas accumulate and the next tick that does run is
            # one bounded catch-up windowed over the true elapsed time.
            self.ticks_deferred[name] += 1
            self._deferred_pending.add(name)
            self._arm(job)
            return
        if name in self._deferred_pending:
            self._deferred_pending.discard(name)
            self.catchup_ticks[name] += 1
        prof = self._prof
        if prof is not None:
            prof.begin("cp.extract/" + name)
        try:
            self._run_body(job)
        finally:
            if prof is not None:
                prof.end()
        self.ticks_run[name] += 1
        self.last_extraction_ns[name] = self.sim.now
        # The body was destructive (read-flip banks, cleared peak-holds).
        self._checkpoint()
        self._arm(job)

    def _run_body(self, job: _Job) -> None:
        """One job body, its report runs collected in one block that
        ships in one call when the body returns, a bound tracer or not
        (the tracer's report context is the block's trace ids)."""
        self._block, self._ids = Block(), []
        try:
            job.body()
        finally:
            block, self._block = self._block, None
        if block:
            self._send(block, self._ids)

    def _checkpoint(self) -> None:
        """End of a destructive step (an extraction tick, a consumed
        digest): the latest checkpoint must cover everything this
        process has irreversibly taken from the data plane."""
        if self._ckpt is not None:
            self._ckpt.on_tick(self)

    # -- degraded reporting mode (driven by the delivery circuit breaker) ---------

    @property
    def interval_scale(self) -> float:
        """Multiplier currently applied to every extraction interval."""
        return self._interval_scale

    def set_degraded(self, on: bool, interval_scale: float = 4.0) -> None:
        """Enter/leave degraded reporting: per-flow FlowSample and
        LimiterReport shipping is suppressed (counted in ``suppressed``,
        kept nowhere; the aggregate stream keeps flowing) and every
        extraction interval is widened by ``interval_scale``."""
        if interval_scale < 1.0:
            raise ValueError("interval_scale must be >= 1")
        scale = interval_scale if on else 1.0
        if on == self.degraded and scale == self._interval_scale:
            return
        self.degraded = on
        self._interval_scale = scale
        if self._running:
            for job in self.schedule.values():
                self._arm(job)

    # -- runtime reconfiguration (what pSConfig drives, Fig. 5a) ------------------

    def apply_metric_config(
        self,
        kind: MetricKind,
        samples_per_second: Optional[float] = None,
        alert_enabled: Optional[bool] = None,
        alert_threshold: Optional[float] = None,
        boosted_samples_per_second: Optional[float] = None,
    ) -> None:
        mc = self.config.metric(kind)
        if samples_per_second is not None:
            if samples_per_second <= 0:
                raise ValueError("samples_per_second must be positive")
            mc.samples_per_second = samples_per_second
        if alert_enabled is not None:
            mc.alert_enabled = alert_enabled
        if alert_threshold is not None:
            mc.alert_threshold = alert_threshold
        if boosted_samples_per_second is not None:
            mc.boosted_samples_per_second = boosted_samples_per_second
        if self._running:
            self._arm(self.schedule[kind.value])

    def _sweep(self, name: str, indices: np.ndarray) -> np.ndarray:
        """One register, every flow of a tick: one runtime read, as int64
        (a 64-bit counter stays below 2**63 bytes).  The snapshot stands
        for the whole tick — ``_tick`` flushed first, a body never
        advances the clock, and an eviction clears only the evicted
        flow's own slot."""
        return self.runtime.read_registers(name, indices).astype(np.int64)

    # -- digest handlers ------------------------------------------------------------

    def track(self, **record) -> TrackedFlow:
        """Track a flow: ``record`` is what :meth:`TrackedFlow.record`
        gives, its extraction state optional (a checkpoint has it)."""
        state = {name: record.pop(name) for name in STATE_FIELDS if name in record}
        flow = TrackedFlow(**record, state=self._state)
        for name, value in state.items():
            setattr(flow, name, value)
        self.flows[flow.flow_id] = flow
        self._sets = None
        return flow

    def forget_flows(self) -> None:
        """Track no flow (a checkpoint restore then tracks its own)."""
        self.flows, self._state, self._sets = {}, FlowState(), None

    def _on_long_flow(self, _name: str, payload: dict) -> None:
        self.track(
            flow_id=payload["flow_id"],
            rev_flow_id=payload["rev_flow_id"],
            slot=payload["slot"],
            rslot=payload["rev_slot"],
            src_ip=payload["src_ip"],
            dst_ip=payload["dst_ip"],
            src_port=payload["src_port"],
            dst_port=payload["dst_port"],
            first_seen_ns=payload["first_seen_ns"],
        )
        # Digest consumption is destructive (the message left the data
        # plane's backlog): checkpoint so a crash cannot unlearn it.
        self._checkpoint()

    def _on_termination(self, _name: str, payload: dict) -> None:
        fid = payload["flow_id"]
        flow = self.flows.get(fid)
        # One cell, noted with a tracer (a tick reads columns: ``_sweep``).
        retx = self.runtime.read_register("pkt_loss", payload["slot"])
        if self._trace is not None:
            self._trace.control_read("pkt_loss", payload["slot"], self.sim.now,
                                     value=retx, flow_id=fid)
        # ``flow_start`` holds the claim instant masked to the register
        # width; a flow tracked in that slot knows it in sim time.
        tracked = flow is not None and not flow.evicted
        report = FlowTerminationReport(
            flow_id=fid,
            src_ip=payload["src_ip"],
            dst_ip=payload["dst_ip"],
            src_port=payload["src_port"],
            dst_port=payload["dst_port"],
            start_ns=flow.first_seen_ns if tracked else payload["start_ns"],
            end_ns=payload["end_ns"],
            total_packets=payload["total_packets"],
            total_bytes=payload["total_bytes"],
            retransmissions=retx,
        )
        self._ship(report)
        if flow is not None:
            self._retire(flow)
        self._checkpoint()

    def _on_microburst(self, _name: str, payload: dict) -> None:
        max_delay = self.config.max_queue_delay_ns()
        event = MicroburstEvent(
            start_ns=payload["start_ns"],
            duration_ns=payload["duration_ns"],
            peak_queue_delay_ns=payload["peak_queue_delay_ns"],
            peak_occupancy=payload["peak_queue_delay_ns"] / max_delay if max_delay else 0.0,
            packets=payload["packets"],
            port_id=payload.get("port_id", 0),
        )
        if self._trace is not None:
            self._trace.fire("microburst", self.sim.now,
                             start_ns=event.start_ns,
                             duration_ns=event.duration_ns,
                             peak_queue_delay_ns=event.peak_queue_delay_ns,
                             packets=event.packets,
                             port_id=event.port_id)
        self._ship(event)
        if self.forensics is not None:
            # Who built this queue?  The culprit query runs at the next
            # forensics tick, once the burst's windows are extracted.
            self.forensics.on_microburst(event)
        self._checkpoint()

    # -- extraction ticks ----------------------------------------------------------

    def _flow_sets(self) -> Tuple[_FlowSet, _FlowSet]:
        """The active flows, and the ended ones whose slot is not yet
        released, in table order."""
        sets = self._sets
        if sets is None:
            flows = self.flows.values()
            sets = self._sets = (
                self._flow_set([f for f in flows if not f.terminated]),
                self._flow_set([f for f in flows if f.terminated and not f.evicted]))
        return sets

    def _flow_set(self, flows: List[TrackedFlow]) -> _FlowSet:
        n = len(flows)
        rows, slots, rslots = (np.fromiter(map(attrgetter(name), flows), np.intp, n)
                               for name in ("row", "slot", "rslot"))
        at = _positions(rows)
        return _FlowSet(flows, rows, slots, rslots, list(map(attrgetter("flow_id"), flows)),
                        tuple(Selection(column, at) for column in self._state.identity))

    def _active_flows(self) -> List[TrackedFlow]:
        return self._flow_sets()[0].flows

    def _tick_throughput(self) -> None:
        now = self.sim.now
        kind = MetricKind.THROUGHPUT
        interval = self._metric_interval_ns(kind)
        # Window rates over the time that actually elapsed since the
        # last extraction — identical to the configured interval when
        # ticks fire on schedule, but correct across deferred ticks,
        # boosts and degraded-mode interval changes.
        elapsed = now - self.last_extraction_ns.get(kind.value, now - interval)
        if elapsed <= 0:
            elapsed = interval
        active, state = self._flow_sets()[0], self._state
        rows, slots = active.rows, active.slots
        totals = self._sweep("flow_bytes", slots)
        pkts = self._sweep("flow_pkts", slots)
        byte_deltas = totals - state.last_bytes[rows]
        state.last_bytes[rows] = totals
        throughputs = throughput_bps(byte_deltas, elapsed)
        state.last_throughput_bps[rows] = throughputs
        quiet = byte_deltas == 0
        idle = np.where(quiet, state.idle_intervals[rows] + 1, 0)
        state.idle_intervals[rows] = idle
        kept = ~(quiet & (idle >= self.config.idle_intervals_before_evict))
        self._put_samples(kind, active, throughputs, None if kept.all() else kept,
                          (("flow_bytes", slots, totals),))
        for i in np.flatnonzero(~kept).tolist():
            self._evict(active.flows[i])

        # The aggregate covers the flows still active after the evictions.
        throughputs = throughputs[kept]
        aggregate = AggregateSample(
            time_ns=now,
            link_utilization=link_utilization(
                byte_deltas, elapsed, self.config.bottleneck_rate_bps
            ),
            jain_fairness=jain_fairness(throughputs) if len(throughputs) else 1.0,
            active_flows=len(throughputs),
            total_bytes=int_sum(totals[kept]),
            total_packets=int_sum(pkts[kept]),
        )
        self._ship(aggregate)
        self._release_ended_flows()

    def _release_ended_flows(self) -> None:
        """A flow that ended with FIN/RST keeps its slot while stragglers
        may still arrive, then gives it up as an idle flow does: after
        ``idle_intervals_before_evict`` throughput ticks without a byte.
        Nothing is shipped for it."""
        ended, state = self._flow_sets()[1], self._state
        if not ended.flows:
            return
        rows = ended.rows
        totals = self._sweep("flow_bytes", ended.slots)
        quiet = totals == state.last_bytes[rows]
        state.last_bytes[rows] = totals
        idle = np.where(quiet, state.idle_intervals[rows] + 1, 0)
        state.idle_intervals[rows] = idle
        for i in np.flatnonzero(quiet & (idle >= self.config.idle_intervals_before_evict)).tolist():
            self._evict(ended.flows[i])

    def _tick_loss(self) -> None:
        now = self.sim.now
        active, state = self._flow_sets()[0], self._state
        rows, slots = active.rows, active.slots
        loss_col = self._sweep("pkt_loss", slots)
        pkts_col = self._sweep("flow_pkts", slots)
        rwnd_col = self._sweep("flow_rwnd", slots)
        # A flight clamps at 0 (the cells are unsigned).
        flights = np.maximum(0, self._sweep("flight_high_seq", slots)
                             - self._sweep("flight_high_ack", slots))
        loss_deltas = loss_col - state.last_loss[rows]
        verdicts, mean_flights, flight_cvs, lost = self.limiter.step(
            active.flow_ids, flights, loss_deltas, rwnd_col)
        state.last_loss[rows], state.verdict[rows] = loss_col, verdicts
        pkt_deltas = pkts_col - state.last_pkts[rows]
        state.last_pkts[rows] = pkts_col
        limiter = Run(LIMITER_KEYS, (
            "p4_limiter", now / NS_PER_S, *active.heads[:3],
            Selection(_VERDICT_VALUES, _positions(verdicts)), mean_flights,
            flight_cvs, lost, rwnd_col), _LIMITER_COLS, len(active.flows))
        self._put_samples(MetricKind.PACKET_LOSS, active, loss_pct(loss_deltas, pkt_deltas),
                          None, (("pkt_loss", slots, loss_col), ("flow_pkts", slots, pkts_col)),
                          (limiter, None), (("flow_rwnd", slots, rwnd_col),))

    def _tick_rtt(self) -> None:
        kind = MetricKind.RTT
        boosted = self.alerts.metric_boosted(kind)
        active, state = self._flow_sets()[0], self._state
        rows = active.rows
        # Algorithm 1 stores the RTT under the ACK direction's flow ID,
        # i.e. the tracked flow's *reversed* ID (a cell two flows may
        # share; it is only read).
        rtt_col = self._sweep("rtt", active.rslots)
        sampled = rtt_col != 0                          # 0: no sample yet
        rtt_ms = rtt_col / 1e6
        # Derived jitter (one of perfSONAR's four headline metrics,
        # §2.2): RFC 3550 smoothing of consecutive RTT-sample deltas.
        last_ms = state.last_rtt_ms[rows]
        follows = sampled & ~np.isnan(last_ms)
        jitters = jitter_step(state.jitter_ms[rows], last_ms, rtt_ms)
        state.jitter_ms[rows[follows]] = jitters[follows]
        state.last_rtt_ms[rows[sampled]] = rtt_ms[sampled]
        self._put_samples(kind, active, rtt_ms, sampled, (("rtt", active.rslots, rtt_col),),
                          (self._stream("jitter", boosted, active, jitters), follows))

    def _tick_queue(self) -> None:
        max_delay = self.config.max_queue_delay_ns()
        active = self._flow_sets()[0]
        slots = active.slots
        # Peak-hold since the previous tick gives the occupancy the
        # sampling interval actually experienced; clear after reading.
        peaks = self._sweep("flow_qdelay_max", slots)
        self.runtime.clear_register("flow_qdelay_max", slots)
        values = 100.0 * peaks / max_delay if max_delay else np.zeros(len(peaks))
        self._put_samples(MetricKind.QUEUE_OCCUPANCY, active, values, None,
                          (("flow_qdelay_max", slots, peaks),))

    # -- helpers -------------------------------------------------------------------

    def _put_samples(self, kind: MetricKind, active: _FlowSet, values: np.ndarray,
                     present: Optional[np.ndarray], reads: tuple,
                     then: Optional[Tuple[Run, Optional[np.ndarray]]] = None,
                     then_reads: tuple = ()) -> None:
        """The one way a tick emits samples: ``values[i]`` is
        ``active.flows[i]``'s where ``present`` is true (``None``: for
        every flow), read from ``reads`` (``(name, indices, cells)``
        columns).  They become one run, followed by the alert runs their
        checks raised or cleared, then by ``then``: a second stream over
        the same flows (jitter or limiter) and what it keeps, as
        :meth:`_put` takes them.  A bound tracer notes the reads flow by
        flow, ``reads`` then ``then_reads``; a document's trace id is the
        last writer of the cell its value was read from: the last of
        ``reads`` for a sample and the alerts its check raised, the last
        of ``then_reads`` (or of ``reads``) for a ``then`` document."""
        now, trace, flows = self.sim.now, self._trace, active.flows
        ids = then_ids = None
        if trace is not None:
            ids, then_ids = [], []
            noted = [(ids, [(name, indices.tolist(), cells.tolist())
                            for name, indices, cells in reads]),
                     (then_ids, [(name, indices.tolist(), cells.tolist())
                                 for name, indices, cells in then_reads])]
            for i, flow in enumerate(flows):
                for tids, columns in noted:
                    for name, indices, cells in columns:
                        tid = trace.control_read(name, indices[i], now, value=cells[i],
                                                 flow_id=flow.flow_id)
                    tids.append(tid)
        self._put(self._stream(kind.value, self.alerts.metric_boosted(kind), active, values),
                  present, ids)
        mc = self.config.metric(kind)
        if mc.alert_enabled and mc.alert_threshold is not None:
            checked = values.tolist()
            for i in (range(len(flows)) if present is None
                      else np.flatnonzero(present).tolist()):
                alert = self.alerts.check(kind, active.flow_ids[i], checked[i], now)
                if alert is not None:
                    self._ship(alert, None if ids is None else ids[i:i + 1])
        if then is not None:
            self._put(*then, then_ids)

    def _stream(self, metric: str, boosted: bool, active: _FlowSet,
                values: np.ndarray) -> Run:
        """One tick's samples of one stream, ``values[i]`` on
        ``active.flows[i]``: a run over every flow."""
        return Run(FLOW_SAMPLE_KEYS, ("p4_" + metric, self.sim.now / NS_PER_S,
                                      *active.heads, values, boosted),
                   _SAMPLE_COLS, len(active.flows))

    def _retire(self, flow: TrackedFlow) -> None:
        """The flow left the active set (FIN/RST or idle eviction).  No
        tick samples it again, so an alert it holds could never clear
        and its limiter row never recycle: drop both here."""
        flow.terminated = True
        self._sets = None
        self.alerts.drop_flow(flow.flow_id)
        self.limiter.forget(flow.flow_id)

    def _evict(self, flow: TrackedFlow) -> None:
        self._retire(flow)
        flow.evicted = True
        self.monitor.release_slot(flow.slot)

    @property
    def reports_suppressed(self) -> int:
        return sum(self.suppressed.values())

    def _ship(self, report, ids: Optional[List[int]] = None) -> None:
        """Put one report (of :mod:`repro.core.reports`) as a run of one;
        ``ids``: :meth:`_put`'s."""
        self._put(report.run(), ids=ids)

    def _suppress(self, name: str, count: int = 1) -> None:
        """Degraded mode: per-flow detail collapses to the aggregate
        stream (what default perfSONAR ships anyway) until the delivery
        path proves healthy again.  Counted by report type."""
        self.suppressed[name] = self.suppressed.get(name, 0) + count

    def _put(self, run: Run, keep: Optional[Sequence[bool]] = None,
             ids: Optional[List[int]] = None) -> None:
        """The one way a report run reaches the sink.  It keeps the
        documents ``keep`` selects (``None``: all; :meth:`Run.select`)
        and their trace ids ``ids`` alike (``None``: the tracer's report
        context now, :meth:`~repro.telemetry.provenance.ProvenanceTracer.report_id`).
        While degraded, a per-flow type's documents are counted as
        suppressed (``_PER_FLOW``); otherwise they are tallied, the run's
        numpy columns typed, and the run filed in the open tick's block
        or, outside a tick, shipped as a block of its own."""
        if keep is not None:
            if ids is not None:
                ids = list(compress(ids, keep))
            run = run.select(keep)
        if run is None or not run.n:
            return
        doc_type = run.values[0]
        if self.degraded and doc_type in _PER_FLOW:
            self._suppress(_PER_FLOW[doc_type], run.n)
            return
        if self.report_sink is None:
            return
        self.tallies[doc_type] += run.n
        if run.cols:
            run = Run(run.keys, tuple(typed(v) if type(v) is np.ndarray else v
                                      for v in run.values), run.cols, run.n)
        if ids is None and self._trace is not None:
            ids = [self._trace.report_id()] * run.n
        if self._block is None:
            self._send(Block([run]), ids)
        else:
            self._block.append(run)
            if ids:
                self._ids.extend(ids)

    def _send(self, block: Block, ids: Optional[List[int]]) -> None:
        """The one ``report_sink`` site.  Every Report_v1 run leads with
        its type, which all its documents share."""
        trace = self._trace
        if trace is not None:
            # Report context: downstream (Logstash, archiver) events
            # attach document i to the packet behind ``ids[i]``.
            trace.begin_report(self.sim.now, ids)
            trace.report_events("control-plane", "ship", [
                (run.values[0], {}) for run in block for _ in range(run.n)])
        try:
            self.report_sink(block)
        finally:
            if trace is not None:
                trace.end_report()

    @property
    def archive(self):
        """The archiver the report sink ends in, or ``None``: the sink is
        a bound ``Archiver.sink``, or a shipper whose ``transport`` is
        one or a ``FaultyTransport`` whose ``target`` is one.  The one
        place this rule lives (docs/architecture.md, "Where a run's
        reports are kept")."""
        sink = self.report_sink
        for hop in ("transport", "target"):     # ResilientShipper, FaultyTransport
            sink = getattr(sink, hop, sink)
        return getattr(sink, "__self__", None) if getattr(
            sink, "__name__", None) == "sink" else None

    # -- flow identity -------------------------------------------------------------

    def flow_by_tuple(self, src_ip: int, dst_ip: int, src_port: int,
                      dst_port: int) -> Optional[TrackedFlow]:
        """The tracked flow matching a 5-tuple's addressing (protocol is
        implicit: the data plane only announces what it parsed)."""
        for flow in self.flows.values():
            if (flow.src_ip == src_ip and flow.dst_ip == dst_ip
                    and flow.src_port == src_port and flow.dst_port == dst_port):
                return flow
        return None


def _positions(rows: np.ndarray) -> array:
    """Rows of a :class:`FlowState` as a selection's positions."""
    return array("I", rows.astype(np.uint32).tobytes())
