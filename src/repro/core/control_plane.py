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
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import telemetry
from repro.telemetry import hooks
from repro.netsim.engine import Event, Simulator
from repro.netsim.units import NS_PER_S, seconds
from repro.core.alerts import AlertManager
from repro.core.config import MetricKind, MonitorConfig
from repro.core.limiter import LimiterClassifier
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
    LimiterVerdict,
    MicroburstEvent,
    ReportView,
    Run,
    flow_head,
)
from repro.core.stats import jain_fairness, link_utilization, throughput_bps

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


@dataclass
class _Job:
    """One row of the extraction schedule."""

    name: str
    body: Callable[[], None]
    base_interval_ns: Callable[[], int]  # before the degraded-mode scale
    timer: Optional[Event] = None


@dataclass
class TrackedFlow:
    """Control-plane record of one data-plane-announced long flow."""

    flow_id: int
    rev_flow_id: int
    slot: int       # flow_id's and rev_flow_id's cells, as announced
    rslot: int      # (``rtt`` sits under rslot: Algorithm 1's ACK ID)
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    first_seen_ns: int
    last_bytes: int = 0
    last_pkts: int = 0
    last_loss: int = 0
    last_throughput_bps: float = 0.0
    idle_intervals: int = 0
    terminated: bool = False
    # The control plane released the register slot, clearing its counters:
    # at once for an idle flow; for one that ended with FIN/RST only after
    # it has also been quiet that long, so the register totals of a flow
    # that just finished stay comparable against ground truth.
    evicted: bool = False
    verdict: LimiterVerdict = LimiterVerdict.UNKNOWN
    last_rtt_ms: Optional[float] = None
    jitter_ms: float = 0.0  # RFC 3550 smoothed inter-sample variation

    @cached_property
    def head(self) -> tuple:
        """What its rows carry: flow_id, dotted quads, ports."""
        return (*flow_head(self.flow_id, self.src_ip, self.dst_ip), self.src_port, self.dst_port)


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
        # The active flows of the last tick and their identity columns
        # (``TrackedFlow.head``, transposed), shared by every run built
        # over the same flows.
        self._heads: tuple = ([], ((),) * 5)

        self.flows: Dict[int, TrackedFlow] = {}
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
        _prof = hooks.profiler
        self._prof = _prof if (_prof is not None and _prof.phases) else None

        # Telemetry reads the tallies above at snapshot time.  The two
        # instants are observed where they happen: an extraction cycle's
        # duration (whose count is the cycle counter) and a shipped
        # report's type, which no default-path tally keeps.
        self._tel_cycle_ns = self._tel_reports = None
        if telemetry.enabled():
            self._tel_cycle_ns = telemetry.histogram(
                "repro_cp_extraction_ns",
                "wall-clock duration of one extraction cycle, per extraction job",
                labels=("metric",))
            telemetry.registry().counter_of(
                "repro_cp_extraction_cycles_total",
                "extraction cycles run, per extraction job", self._tel_cycle_ns)
            self._tel_reports = telemetry.counter(
                "repro_cp_reports_total",
                "reports shipped to the sink, by document type",
                labels=("type",))
        telemetry.reads(self, counters=[
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
            if self._tel_cycle_ns is not None:
                t0 = time.perf_counter_ns()
                self._run_body(job)
                self._tel_cycle_ns.labels(name).observe(
                    time.perf_counter_ns() - t0)
            else:
                self._run_body(job)
        finally:
            if prof is not None:
                prof.end()
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

    def _sweep(self, name: str, indices: List[int]) -> List[int]:
        """One register, every flow of a tick: one runtime read.  The
        snapshot stands for the whole tick — ``_tick`` flushed first, a
        body never advances the clock, and an eviction clears only the
        evicted flow's own slot."""
        return self.runtime.read_registers(name, indices).tolist()

    # -- digest handlers ------------------------------------------------------------

    def _on_long_flow(self, _name: str, payload: dict) -> None:
        flow = TrackedFlow(
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
        self.flows[flow.flow_id] = flow
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

    def _active_flows(self) -> List[TrackedFlow]:
        return [f for f in self.flows.values() if not f.terminated]

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
        flows = self._active_flows()
        slots = [f.slot for f in flows]
        totals = self._sweep("flow_bytes", slots)
        byte_deltas, values, idle = [], [], []
        total_bytes = total_packets = 0
        for flow, total, pkts in zip(flows, totals, self._sweep("flow_pkts", slots)):
            delta = total - flow.last_bytes
            flow.last_bytes = total
            thr = flow.last_throughput_bps = throughput_bps(delta, elapsed)
            byte_deltas.append(delta)
            if delta == 0:
                flow.idle_intervals += 1
                if flow.idle_intervals >= self.config.idle_intervals_before_evict:
                    idle.append(flow)
                    values.append(None)
                    continue
            else:
                flow.idle_intervals = 0
            values.append(thr)
            total_bytes += total
            total_packets += pkts
        self._put_samples(kind, flows, values, (("flow_bytes", slots, totals),))
        for flow in idle:
            self._evict(flow)

        # The aggregate covers the flows still active after the evictions.
        throughputs = [v for v in values if v is not None]
        aggregate = AggregateSample(
            time_ns=now,
            link_utilization=link_utilization(
                byte_deltas, elapsed, self.config.bottleneck_rate_bps
            ),
            jain_fairness=jain_fairness(throughputs) if throughputs else 1.0,
            active_flows=len(throughputs),
            total_bytes=total_bytes,
            total_packets=total_packets,
        )
        self._ship(aggregate)
        self._release_ended_flows()

    def _release_ended_flows(self) -> None:
        """A flow that ended with FIN/RST keeps its slot while stragglers
        may still arrive, then gives it up as an idle flow does: after
        ``idle_intervals_before_evict`` throughput ticks without a byte.
        Nothing is shipped for it."""
        ended = [f for f in self.flows.values() if f.terminated and not f.evicted]
        if not ended:
            return
        for flow, total in zip(ended, self._sweep("flow_bytes",
                                                  [f.slot for f in ended])):
            if total != flow.last_bytes:
                flow.last_bytes, flow.idle_intervals = total, 0
                continue
            flow.idle_intervals += 1
            if flow.idle_intervals >= self.config.idle_intervals_before_evict:
                self._evict(flow)

    def _tick_loss(self) -> None:
        now = self.sim.now
        flows = self._active_flows()
        fids = [f.flow_id for f in flows]
        slots = [f.slot for f in flows]
        loss_col = self._sweep("pkt_loss", slots)
        pkts_col = self._sweep("flow_pkts", slots)
        rwnd_col = self._sweep("flow_rwnd", slots)
        # Cells are uint64: subtract the ints, so a flight clamps at 0
        # where the arrays would wrap.
        flights = [max(0, seq - ack) for seq, ack in zip(
            self._sweep("flight_high_seq", slots), self._sweep("flight_high_ack", slots))]
        loss_deltas = [losses - f.last_loss for f, losses in zip(flows, loss_col)]
        verdicts, mean_flights, flight_cvs, lost = self.limiter.step(
            fids, flights, loss_deltas, rwnd_col)
        values = []
        for flow, losses, pkts, loss_delta, verdict in zip(
                flows, loss_col, pkts_col, loss_deltas, verdicts):
            flow.last_loss, flow.verdict = losses, verdict
            pkt_delta = max(1, pkts - flow.last_pkts)
            flow.last_pkts = pkts
            # Clamped: regressions observed before the flow claimed its
            # slot can make the raw ratio exceed 100 %.
            values.append(min(100.0, 100.0 * loss_delta / pkt_delta))
        limiter = (LIMITER_KEYS, (
            "p4_limiter", now / NS_PER_S, *self._head_columns(flows)[:3],
            [verdict._value_ for verdict in verdicts], mean_flights, flight_cvs, lost,
            rwnd_col), _LIMITER_COLS, None)
        self._put_samples(MetricKind.PACKET_LOSS, flows, values,
                          (("pkt_loss", slots, loss_col), ("flow_pkts", slots, pkts_col)),
                          limiter, (("flow_rwnd", slots, rwnd_col),))

    def _tick_rtt(self) -> None:
        kind = MetricKind.RTT
        boosted = self.alerts.metric_boosted(kind)
        flows = self._active_flows()
        # Algorithm 1 stores the RTT under the ACK direction's flow ID,
        # i.e. the tracked flow's *reversed* ID (a cell two flows may
        # share; it is only read).
        rslots = [f.rslot for f in flows]
        rtt_col = self._sweep("rtt", rslots)
        # Derived jitter (one of perfSONAR's four headline metrics,
        # §2.2): RFC 3550 smoothing of consecutive RTT-sample deltas.
        values, jitters = [], []
        for flow, rtt_ns in zip(flows, rtt_col):
            rtt_ms = jitter = None
            if rtt_ns:                                  # 0: no sample yet
                rtt_ms = rtt_ns / 1e6
                if flow.last_rtt_ms is not None:
                    flow.jitter_ms += (abs(rtt_ms - flow.last_rtt_ms) - flow.jitter_ms) / 16.0
                    jitter = flow.jitter_ms
                flow.last_rtt_ms = rtt_ms
            values.append(rtt_ms)
            jitters.append(jitter)
        self._put_samples(kind, flows, values, (("rtt", rslots, rtt_col),),
                          self._stream("jitter", boosted, flows, jitters))

    def _tick_queue(self) -> None:
        max_delay = self.config.max_queue_delay_ns()
        flows = self._active_flows()
        slots = [f.slot for f in flows]
        # Peak-hold since the previous tick gives the occupancy the
        # sampling interval actually experienced; clear after reading.
        peaks = self._sweep("flow_qdelay_max", slots)
        self.runtime.clear_register("flow_qdelay_max", slots)
        values = ([100.0 * peak / max_delay for peak in peaks] if max_delay
                  else [0.0] * len(peaks))
        self._put_samples(MetricKind.QUEUE_OCCUPANCY, flows, values,
                          (("flow_qdelay_max", slots, peaks),))

    # -- helpers -------------------------------------------------------------------

    def _put_samples(self, kind: MetricKind, flows: List[TrackedFlow],
                     values: List[Optional[float]], reads: tuple,
                     then: Optional[tuple] = None, then_reads: tuple = ()) -> None:
        """The one way a tick emits samples: ``values[i]`` (``None``: none)
        is ``flows[i]``'s, read from ``reads`` (``(name, indices, cells)``
        columns).  They become one run, followed by the alert runs their
        checks raised or cleared, then by the run of ``then``, a second
        stream over the same flows (jitter or limiter, as :meth:`_stream`
        describes one).  Degraded mode counts their documents as
        suppressed, off the tallies.  A bound tracer notes the reads flow
        by flow, ``reads`` then ``then_reads``; a document's trace id is
        the last writer of the cell its value was read from: the last of
        ``reads`` for a sample and the alerts its check raised, the last
        of ``then_reads`` (or of ``reads``) for a ``then`` document."""
        now, trace = self.sim.now, self._trace
        sample = self._stream(kind.value, self.alerts.metric_boosted(kind), flows, values)
        streams = (sample,) if then is None else (then, sample)
        counts = {spec[1][0]: len(flows) if spec[3] is None else
                  len(flows) - spec[3].count(None) for spec in streams}
        put = self.report_sink is not None
        if put:
            self.tallies.update(counts)
        if self.degraded:
            limiter = counts.get("p4_limiter", 0)
            self._suppress("FlowSample", sum(counts.values()) - limiter)
            self._suppress("LimiterReport", limiter)
            if put:
                self.tallies.subtract(counts)
            put = False
        ids = then_ids = None
        if trace is not None:
            ids, then_ids = [], []
            for i, flow in enumerate(flows):
                for noted, columns in ((ids, reads), (then_ids, then_reads)):
                    for name, indices, cells in columns:
                        tid = trace.control_read(name, indices[i], now, value=cells[i],
                                                 flow_id=flow.flow_id)
                    noted.append(tid)
        if put:
            self._put(*_tick_runs(sample, ids))
        mc = self.config.metric(kind)
        if mc.alert_enabled and mc.alert_threshold is not None:
            for i, (flow, value) in enumerate(zip(flows, values)):
                if value is not None:
                    alert = self.alerts.check(kind, flow.flow_id, value, now)
                    if alert is not None:
                        self._ship(alert, None if ids is None else ids[i:i + 1])
        if put and then is not None:
            self._put(*_tick_runs(then, then_ids))

    def _stream(self, metric: str, boosted: bool, flows: List[TrackedFlow],
                values: List[Optional[float]]) -> tuple:
        """One tick's samples of one stream (``values[i]`` on ``flows[i]``;
        ``None``: none) as ``(keys, values, cols, present)``: the run's
        fields over every flow, its column positions, and the list whose
        ``None``s mark the flows without a document (``None``: none
        lacks one)."""
        return (FLOW_SAMPLE_KEYS, ("p4_" + metric, self.sim.now / NS_PER_S,
                                   *self._head_columns(flows), values, boosted),
                _SAMPLE_COLS, values)

    def _head_columns(self, flows: List[TrackedFlow]) -> tuple:
        """The flows' identities as five columns (flow_id, the dotted
        quads, the ports), rebuilt only when the active set changed:
        every run of a tick, and of every tick until then, shares them."""
        last, columns = self._heads
        if flows != last:
            columns = tuple(map(tuple, zip(*[f.head for f in flows]))) or ((),) * 5
            self._heads = (flows, columns)
        return columns

    def _retire(self, flow: TrackedFlow) -> None:
        """The flow left the active set (FIN/RST or idle eviction).  No
        tick samples it again, so an alert it holds could never clear
        and its limiter row never recycle: drop both here."""
        flow.terminated = True
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
        """Put one report's run of one (a report of
        :mod:`repro.core.reports`); ``ids``: :meth:`_put`'s."""
        if self.degraded and isinstance(report, (FlowSample, LimiterReport)):
            self._suppress(type(report).__name__)
        elif self.report_sink is not None:
            run = report.run()
            self.tallies[run.values[0]] += 1
            self._put([run], ids)

    def _suppress(self, name: str, count: int = 1) -> None:
        """Degraded mode: per-flow detail collapses to the aggregate
        stream (what default perfSONAR ships anyway) until the delivery
        path proves healthy again.  Counted by report type."""
        self.suppressed[name] = self.suppressed.get(name, 0) + count

    def _put(self, runs: List[Run], ids: Optional[List[int]] = None) -> None:
        """Put report runs into the open tick's block or, outside a tick,
        ship them as a block of their own.  A bound tracer takes their
        documents' trace ids from ``ids``, or else from its report
        context now (:meth:`~repro.telemetry.provenance.ProvenanceTracer.report_id`)."""
        if ids is None and self._trace is not None:
            ids = [self._trace.report_id()] * sum(run.n for run in runs)
        if self._block is None:
            self._send(Block(runs), ids)
        else:
            self._block.extend(runs)
            if ids:
                self._ids.extend(ids)

    def _send(self, block: Block, ids: Optional[List[int]]) -> None:
        """The one ``report_sink`` site.  Every Report_v1 run leads with
        its type, which all its documents share."""
        if self._tel_reports is not None:
            for run in block:
                self._tel_reports.labels(run.values[0]).inc(run.n)
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


def _tick_runs(stream: tuple, ids: Optional[List[int]]) -> tuple:
    """A stream of :meth:`MonitorControlPlane._stream` as one run (none
    when no flow has a document) and its documents' trace ids: its
    columns as the tick built them, or compressed to the flows that have
    a document, and ``ids`` (one per flow; ``None``: no tracer) alike."""
    keys, values, cols, present = stream
    n = len(values[cols[0]])
    if present is not None:
        keep = [v is not None for v in present]
        kept = sum(keep)
        if kept < n:
            values = tuple(list(compress(v, keep)) if p in cols else v
                           for p, v in enumerate(values))
            if ids is not None:
                ids = list(compress(ids, keep))
            n = kept
    return ([Run(keys, values, cols, n)] if n else []), ids
