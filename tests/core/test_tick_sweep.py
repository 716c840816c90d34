"""A tick is a sweep: the four metric ticks read each register once for
all flows, and emit their samples as columns.  The reference here is a
copy of the per-cell tick bodies as they stood before the sweep — one
``_read_traced`` per flow per register, ``FlightSizeStage.flight_bytes``
and one limiter call per flow — and of the per-sample emitter they
called before a tick's samples became columns, run on the same scripted
world; everything a tick leaves behind (the archive and the tallies
included) must be equal, and what a tick costs the runtime is pinned as
a count."""

import random
from collections import Counter

import pytest

from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import AggregateSample, FlowSample, LimiterReport
from repro.core.stats import jain_fairness, link_utilization, throughput_bps
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, TCPFlags
from repro.netsim.units import millis, seconds
from repro.p4.hashes import crc32_tuple
from repro.perfsonar.archiver import Archiver
from repro.resilience.checkpoint import capture_checkpoint
from repro.telemetry import provenance

from tests.core.helpers import FlowScript, small_monitor


class RecordingArchiver(Archiver):
    """An archive that also keeps every block it was handed, in order,
    and, under a tracer, how many events were recorded when each block
    had crossed it."""

    def __init__(self):
        super().__init__()
        self.blocks, self.ends = [], []

    def sink(self, block):
        self.blocks.append(block)
        super().sink(block)
        if self._trace is not None:
            self.ends.append(self._trace.events_recorded)


class PerCellControlPlane(MonitorControlPlane):
    """The four tick bodies cell by cell, each sample emitted alone."""

    def _read_traced(self, name, index, flow_id=-1):
        """Single-cell runtime register read, noted with a tracer."""
        value = self.runtime.read_register(name, index)
        if self._trace is not None:
            self._trace.control_read(name, index, self.sim.now,
                                     value=value, flow_id=flow_id)
        return value

    def _sample_emitter(self, kind, now, jitter=False):
        """One tick's ``emit(flow, value)``: put one per-flow sample's
        Report_v1 row as a run of one (suppressed here while degraded),
        then run the metric's alert check.
        ``jitter`` selects the stream derived from ``kind``'s samples (no
        alert class of its own)."""
        boosted = self.alerts.metric_boosted(kind)
        mc = self.config.metric(kind)
        alerting = not jitter and mc.alert_enabled and mc.alert_threshold is not None
        metric = "jitter" if jitter else kind.value

        def emit(flow, value):
            sample = FlowSample(now, metric, flow.flow_id, flow.src_ip,
                                flow.dst_ip, flow.src_port, flow.dst_port,
                                value, boosted)
            if self.degraded:
                self._suppress("FlowSample")
            else:
                self._put(sample.run())
            if alerting:
                alert = self.alerts.check(kind, flow.flow_id, value, now)
                if alert is not None:
                    self._ship(alert)

        return emit

    def _jitter_step(self, flow, rtt_ms, emit):
        """RFC 3550 smoothing of consecutive RTT-sample deltas."""
        if flow.last_rtt_ms is not None:
            delta = abs(rtt_ms - flow.last_rtt_ms)
            flow.jitter_ms += (delta - flow.jitter_ms) / 16.0
            emit(flow, flow.jitter_ms)
        flow.last_rtt_ms = rtt_ms

    def _tick_throughput(self):
        now = self.sim.now
        kind = MetricKind.THROUGHPUT
        interval = self._metric_interval_ns(kind)
        elapsed = now - self.last_extraction_ns.get(kind.value, now - interval)
        if elapsed <= 0:
            elapsed = interval
        emit = self._sample_emitter(kind, now)
        byte_deltas = []
        for flow in self._active_flows():
            total = self._read_traced("flow_bytes", flow.slot,
                                      flow_id=flow.flow_id)
            delta = total - flow.last_bytes
            flow.last_bytes = total
            thr = throughput_bps(delta, elapsed)
            flow.last_throughput_bps = thr
            byte_deltas.append(delta)
            if delta == 0:
                flow.idle_intervals += 1
                if flow.idle_intervals >= self.config.idle_intervals_before_evict:
                    self._evict(flow)
                    continue
            else:
                flow.idle_intervals = 0
            emit(flow, thr)

        active = self._active_flows()
        throughputs = [f.last_throughput_bps for f in active]
        read = self.runtime.read_register
        aggregate = AggregateSample(
            time_ns=now,
            link_utilization=link_utilization(
                byte_deltas, elapsed, self.config.bottleneck_rate_bps),
            jain_fairness=jain_fairness(throughputs) if throughputs else 1.0,
            active_flows=len(active),
            total_bytes=sum(read("flow_bytes", f.slot) for f in active),
            total_packets=sum(read("flow_pkts", f.slot) for f in active),
        )
        self._ship(aggregate)
        # The FIN linger came after the sweep and is shared, not compared.
        self._release_ended_flows()

    def _tick_loss(self):
        now = self.sim.now
        mask = self.config.flow_slots - 1
        emit = self._sample_emitter(MetricKind.PACKET_LOSS, now)
        for flow in self._active_flows():
            losses = self._read_traced("pkt_loss", flow.flow_id & mask,
                                       flow_id=flow.flow_id)
            pkts = self._read_traced("flow_pkts", flow.slot,
                                     flow_id=flow.flow_id)
            loss_delta = losses - flow.last_loss
            flow.last_loss = losses
            pkt_delta = max(1, pkts - flow.last_pkts)
            flow.last_pkts = pkts
            emit(flow, min(100.0, 100.0 * loss_delta / pkt_delta))
            # _limiter_step
            flight = self.monitor.flight.flight_bytes(flow.slot)
            self.limiter.observe(flow.flow_id, flight, loss_delta)
            rwnd = self._read_traced("flow_rwnd", flow.flow_id & mask,
                                     flow_id=flow.flow_id)
            verdict, mean_flight, cv, lost = self.limiter.classify(
                flow.flow_id, rwnd)
            flow.verdict = verdict
            report = LimiterReport(
                time_ns=now, flow_id=flow.flow_id, src_ip=flow.src_ip,
                dst_ip=flow.dst_ip, verdict=verdict, flight_bytes=mean_flight,
                flight_cv=cv, loss_delta=lost, rwnd_bytes=rwnd)
            self._ship(report)

    def _tick_rtt(self):
        now = self.sim.now
        mask = self.config.flow_slots - 1
        emit = self._sample_emitter(MetricKind.RTT, now)
        emit_jitter = self._sample_emitter(MetricKind.RTT, now, jitter=True)
        for flow in self._active_flows():
            rtt_ns = self._read_traced("rtt", flow.rev_flow_id & mask,
                                       flow_id=flow.flow_id)
            if rtt_ns == 0:
                continue
            rtt_ms = rtt_ns / 1e6
            emit(flow, rtt_ms)
            self._jitter_step(flow, rtt_ms, emit_jitter)

    def _tick_queue(self):
        now = self.sim.now
        mask = self.config.flow_slots - 1
        max_delay = self.config.max_queue_delay_ns()
        emit = self._sample_emitter(MetricKind.QUEUE_OCCUPANCY, now)
        for flow in self._active_flows():
            idx = flow.flow_id & mask
            peak = self._read_traced("flow_qdelay_max", idx,
                                     flow_id=flow.flow_id)
            self.runtime.clear_register("flow_qdelay_max", idx)
            emit(flow, 100.0 * peak / max_delay if max_delay else 0.0)


# -- the scripted world ----------------------------------------------------------

SLOTS = 256
FLOWS = 24


def five_tuples():
    """``FLOWS`` five-tuples with distinct register slots, the second
    and third of which share one ``rtt`` cell (``rev_flow_id & mask``)."""
    mask = SLOTS - 1
    chosen, slots = [], set()
    port = 40000
    while len(chosen) < FLOWS:
        port += 1
        ft = FiveTuple(0x0A00000A + len(chosen), 0x0A01000A, port, 5201)
        slot = crc32_tuple(ft) & mask
        if slot in slots:
            continue
        if len(chosen) == 2 and (crc32_tuple(ft.reversed()) & mask
                                 != crc32_tuple(chosen[1].reversed()) & mask):
            continue
        chosen.append(ft)
        slots.add(slot)
    return chosen


def build_world(cp_class, seed):
    """Monitor + control plane (every metric at 10 samples/s, every
    metric class alerting, each threshold crossed both ways) with a
    seeded packet script queued on the simulator.  Two calls with one
    seed queue identical scripts."""
    rng = random.Random(seed)
    sim = Simulator()
    mon = small_monitor(flow_slots=SLOTS, long_flow_bytes=1000,
                        idle_intervals_before_evict=3)
    for kind in MetricKind:
        mon.config.metric(kind).samples_per_second = 10.0
    thr = mon.config.metric(MetricKind.THROUGHPUT)
    thr.alert_enabled, thr.alert_threshold = True, 600_000.0
    thr.boosted_samples_per_second = 20.0
    loss = mon.config.metric(MetricKind.PACKET_LOSS)
    loss.alert_enabled, loss.alert_threshold = True, 20.0
    rtt_mc = mon.config.metric(MetricKind.RTT)
    rtt_mc.alert_enabled, rtt_mc.alert_threshold = True, 20.0          # ms
    queue = mon.config.metric(MetricKind.QUEUE_OCCUPANCY)
    queue.alert_enabled, queue.alert_threshold = True, 25.0            # % of 10 ms
    archiver = RecordingArchiver()
    cp = cp_class(sim, mon, report_sink=archiver.sink)
    # Suppressed reports, counted by report type as telemetry labels them.
    cp.suppressed_by_type, suppress = Counter(), cp._suppress

    def count_suppressed(name, count=1):
        cp.suppressed_by_type[name] += count
        suppress(name, count)

    cp._suppress = count_suppressed
    cp.start()

    for i, ft in enumerate(five_tuples()):
        script = FlowScript(mon, ft)
        # Nothing before 250 ms (the first ticks sweep an empty flow
        # set); starts are spread, so flows are learned between ticks.
        t = millis(250) + (rng.randrange(millis(900)) if i else 0) + 1 + 2 * i
        # Flow 0, first in table order, falls silent early and is
        # evicted in the middle of a throughput tick while the flows
        # after it are still active; a few others stop later.
        stop = seconds(0.9) if i == 0 else seconds(rng.choice((1.6, 2.2, 9, 9, 9)))
        fin_at = seconds(1.45) if i in (4, 5) else None
        rtt = millis(rng.randrange(2, 30))
        gap = millis(rng.randrange(8, 60))
        seq = 1
        while t < min(stop, seconds(3.4)):
            length = rng.choice((400, 1000, 1448))
            if fin_at is not None and t >= fin_at:
                sim.at(t, script.data, seq, 0, t, TCPFlags.FIN | TCPFlags.ACK)
                break
            if seq > 1 and rng.random() < 0.12:          # retransmission
                sim.at(t, script.data, max(1, seq - length), length, t)
            else:
                out = t + rng.randrange(50_000, 4_000_000)
                sim.at(t, script.transit, seq, length, t, out)
                seq += length
                window = rng.choice((65_535, 20_000, 4_000_000))
                if rng.random() < 0.8:
                    back = t + rtt + rng.randrange(millis(8))
                    sim.at(back, script.ack, seq, back, window)
            t += gap + rng.randrange(millis(3))
    # Degraded mode for a stretch: per-flow shipping suppressed,
    # intervals widened and then restored.
    sim.at(seconds(1.75) + 7, cp.set_degraded, True, 2.0)
    sim.at(seconds(2.45) + 7, cp.set_degraded, False)
    return sim, mon, cp, archiver.blocks


def outcome(world):
    sim, mon, cp, shipped = world
    return {
        "samples": {k.value: list(log) for k, log in cp.flow_samples.items()},
        "jitter": list(cp.jitter_samples),
        "aggregates": list(cp.aggregate_samples),
        "limiter_reports": list(cp.limiter_reports),
        "tallies": +cp.tallies,
        "archived": {t: cp.archive.count(t) for t in cp.tallies},
        "limiter_history": cp.limiter.history(),
        "alerts": cp.alerts.history,
        "active_alerts": cp.alerts.active_alerts,
        "flows": list(cp.flows.values()),
        "terminations": list(cp.terminations),
        "suppressed": (cp.reports_suppressed, dict(+cp.suppressed_by_type)),
        # A stream's documents travel as one run, the per-cell emitter's
        # one run each: per block, each type's documents in order.
        "shipped": [sorted(block.documents(), key=lambda doc: doc["type"])
                    for block in shipped],
        "registers": mon.program.state_digest(),
        "events_run": sim.events_run,
    }


def lineage(tracer, ends):
    """The tracer's events without ``seq``, in order, except that each
    block's report events (those recorded by the time the block had
    crossed the archive, whose ``ends`` count them) come sorted stably by
    kind and document type, as ``shipped`` sorts a block's documents."""
    out, block, ends = [], [], set(ends)
    for ev in tracer.events():
        (block if ev.kind in ("ship", "archive", "logstash-ship", "logstash-drop")
         else out).append(ev)
        if ev.seq + 1 in ends:
            out += sorted(block, key=lambda ev: (ev.kind, ev.detail.get("doc_type", ev.where)))
            block = []
    return [ev[1:] for ev in out + block]


@pytest.fixture(autouse=True)
def _provenance_off_after():
    yield
    provenance.disable()


@pytest.mark.parametrize("traced", [False, True], ids=["dark", "traced"])
@pytest.mark.parametrize("seed", [3, 11])
def test_sweep_equals_the_per_cell_ticks(seed, traced):
    worlds, events = [], []
    for cp_class in (PerCellControlPlane, MonitorControlPlane):
        if traced:
            provenance.enable(sample_rate=1.0, coarse_window=10**6,
                              fine_window=10**6)
        world = build_world(cp_class, seed)
        world[0].run_until(seconds(3.5))
        worlds.append(world)
        if traced:
            events.append(lineage(provenance.tracer(), world[2].archive.ends))
            provenance.disable()
    (_, ref_mon, ref_cp, _), (_, mon, cp, _) = worlds
    ref, got = outcome(worlds[0]), outcome(worlds[1])
    for name in ref:
        assert got[name] == ref[name], name
    # Every row handed to the archive is in it, and none suppressed is.
    assert got["archived"] == got["tallies"]
    if traced:
        # Same provenance events in the same order, a block's report
        # events as ``shipped`` orders its documents: every extraction is
        # noted where the per-cell read happened, and each shipped report
        # inherits the same packet.
        assert events[1] == events[0]
        assert any(ev[3] == "logstash-ship" for ev in events[1])
        assert any(ev[2:4] == ("control-plane", "extract") for ev in events[1])

    # The script reached the cases it was written for.
    flows = [cp.flows[crc32_tuple(ft)] for ft in five_tuples()]
    mask = SLOTS - 1
    assert len(cp.flows) == FLOWS and next(iter(cp.flows.values())) is flows[0]
    assert len({f.slot for f in flows}) == FLOWS          # one key per slot
    assert all(f.slot == f.flow_id & mask for f in flows)
    assert flows[1].rev_flow_id & mask == flows[2].rev_flow_id & mask
    assert all(a.active_flows == 0 for a in cp.aggregate_samples[:2])
    fin = [cp.flows[r.flow_id] for r in cp.terminations]
    assert len(fin) == 2 and all(f.evicted for f in fin)   # lingered, released
    evicted = [f for f in flows if f.evicted and f not in fin]
    assert flows[0] in evicted and 2 <= len(evicted) < FLOWS
    assert not set(cp.limiter.history()) & {f.flow_id for f in fin + evicted}
    assert cp.reports_suppressed > 0 and not cp.degraded
    assert set(+cp.suppressed_by_type) == {"FlowSample", "LimiterReport"}
    for kind in MetricKind:
        assert {a.cleared for a in cp.alerts.history
                if a.metric == kind.value} == {False, True}, kind
    # A stream is one run, a tracer bound or not; the alert
    # runs its checks raised or cleared follow it, before the jitter or
    # limiter run.
    runs = [run.values[0] for block in worlds[1][3] for run in block]
    runs = [t for i, t in enumerate(runs) if t != "p4_alert" or runs[i - 1] != t]
    spliced = {(before, after) for before, alert, after in zip(runs, runs[1:], runs[2:])
               if alert == "p4_alert"}
    assert ("p4_rtt", "p4_jitter") in spliced
    assert ("p4_packet_loss", "p4_limiter") in spliced
    assert all(run.values[0] != "p4_alert" or run.n == 1
               for block in worlds[1][3] for run in block)
    assert len({report.verdict for report in cp.limiter_reports}) >= 3

    # Data-plane op tallies: a swept cell counts as a read cell, so every
    # register equals the reference except the two the aggregate used to
    # read a second time (``flow_bytes`` for the flows still active, and
    # ``flow_pkts`` only for those: it is now read before the evictions).
    ops = {n: r.ops for n, r in mon.program.registers.items()}
    ref_ops = {n: r.ops for n, r in ref_mon.program.registers.items()}
    still_active = sum(a.active_flows for a in cp.aggregate_samples)
    assert ref_ops.pop("flow_bytes") - ops.pop("flow_bytes") == still_active > 0
    assert ops.pop("flow_pkts") - ref_ops.pop("flow_pkts") == len(evicted)
    assert ops == ref_ops
    assert cp.runtime.register_reads < ref_cp.runtime.register_reads / 10


def test_a_tick_costs_the_runtime_a_fixed_number_of_reads():
    """The hop is pinned as a count, not a clock: whatever the number
    of flows, a loss tick is at most six runtime reads and every other
    metric tick at most two."""
    sim = Simulator()
    mon = small_monitor(flow_slots=1024)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    for fid in range(1, 1001):
        cp._on_long_flow("long_flow", dict(
            flow_id=fid, rev_flow_id=fid + 5000, slot=fid,
            rev_slot=(fid + 5000) & 1023,
            src_ip=0x0A000000 + fid, dst_ip=0x0A010000, src_port=40000,
            dst_port=5201, first_seen_ns=0))
        mon.program.registers["flow_bytes"].write(fid, 1000 + fid)
        mon.program.registers["rtt"].write((fid + 5000) & 1023, 5_000_000)
    ops = {name: reg.ops for name, reg in mon.program.registers.items()}
    for name, limit in (("throughput", 2), ("packet_loss", 6), ("rtt", 2),
                        ("queue_occupancy", 2)):
        before = cp.runtime.register_reads
        cp.schedule[name].body()
        assert 1 <= cp.runtime.register_reads - before <= limit, name
    for kind in MetricKind:
        assert len(cp.flow_samples[kind]) == 1000
    assert len(cp.limiter_reports) == 1000
    assert cp.aggregate_samples[0].total_bytes == sum(range(1001, 2001))
    # ... and a swept cell is still one data-plane op.
    swept = {name: reg.ops - ops[name]
             for name, reg in mon.program.registers.items() if reg.ops != ops[name]}
    assert swept == dict.fromkeys(
        ("flow_bytes", "flow_pkts", "pkt_loss", "flow_rwnd", "flight_high_seq",
         "flight_high_ack", "rtt", "flow_qdelay_max"), 1000) | {"flow_pkts": 2000}


# -- a flow that ends by FIN/RST is retired, not just flagged --------------------


def test_fin_terminated_flow_drops_its_alert_and_its_limiter_row():
    """Nothing ticks a terminated flow again, so an alert it held could
    never clear: the metric stayed boosted and the classifier (and every
    later checkpoint) kept the flow for ever."""
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    cp.start()
    cp.apply_metric_config(MetricKind.THROUGHPUT, alert_enabled=True,
                           alert_threshold=1_000_000.0,
                           boosted_samples_per_second=5.0)
    script = FlowScript(mon)
    seq, t = 1, seconds(0.1)
    while t < seconds(2.2):                   # 4 Mb/s, far over the threshold
        sim.at(t, script.data, seq, 1000, t)
        sim.at(t + millis(5), script.ack, seq + 1000, t + millis(5))
        seq, t = seq + 1000, t + millis(2)
    sim.at(seconds(2.2), script.data, seq, 0, seconds(2.2),
           TCPFlags.FIN | TCPFlags.ACK)
    sim.run_until(seconds(2.1))
    assert cp.alerts.metric_boosted(MetricKind.THROUGHPUT)
    assert cp.interval_ns("throughput") == millis(200)
    assert script.flow_id in cp.limiter.history()

    sim.run_until(seconds(6))
    flow = cp.flows[script.flow_id]
    assert flow.terminated and not flow.evicted and len(cp.terminations) == 1
    assert mon.flow_table.flow_key.read(flow.slot) == flow.flow_id   # lingering
    sim.run_until(seconds(30))
    assert flow.evicted and mon.flow_table.flow_key.read(flow.slot) == 0
    assert cp.alerts.active_alerts == []
    assert not cp.alerts.metric_boosted(MetricKind.THROUGHPUT)
    assert cp.interval_ns("throughput") == seconds(1)
    assert script.flow_id not in cp.limiter.history()
    # One aggregate a second after the FIN, not five.
    late = [a for a in cp.aggregate_samples if a.time_ns > seconds(3.5)]
    assert 25 <= len(late) <= 27
    assert str(script.flow_id) not in capture_checkpoint(cp)["control_plane"]["limiter"]
