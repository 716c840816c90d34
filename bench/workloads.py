"""The four workloads: inputs, system under test, run phase, checks.

Every workload is a batch job driven by one caller (closed loop, one
client): the measured quantity is the time to complete a stated input.
Each one offers the same operations to the harness:

``generate(seed, smoke)``  inputs from the seed (untimed, ``harness.gen_s``)
``setup()``                what a cold start constructs (the setup_s probe)
``build(inp)``             the system under test, through public constructors
``run(sut, inp)``          the run phase -- the only timed region
``check(inp, last)``       untimed checks: (sut checked, attempted, failed, rtt_err_pct)

The frozen parameters below are the sizes bench/BASELINE.json was taken
at; ``smoke`` shrinks them ~20x for bench/test_smoke.py only.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.experiments.common import Scenario, ScenarioConfig
from repro.netsim.engine import Simulator
from repro.netsim.observer import EventStream, observe_topology
from repro.netsim.packet import FiveTuple, PROTO_TCP
from repro.p4.hashes import crc32_tuple
from repro.perfsonar.archiver import Archiver
from repro.validation.checker import DifferentialChecker
from repro.validation.oracle import GroundTruthOracle

from bench.gen import ReplayInput, replay_stream


# -- what every workload's system under test looks like from outside ----------


@dataclass
class ReplaySut:
    """Monitor + control plane + archiver with no network around them
    (a Scenario offers the same attributes plus topology and flows)."""

    sim: Simulator
    monitor: P4Monitor
    control_plane: MonitorControlPlane
    archiver: Archiver
    topology = None
    flows = ()


def archiver_of(sut) -> Archiver:
    return sut.archiver if isinstance(sut, ReplaySut) else sut.perfsonar.archiver


def reports_shipped(sut) -> int:
    """Reports the control plane handed to its sink, counted from its own
    local archives -- independent of the archive's document counter and
    free of any wrapper inside the timed region."""
    cp = sut.control_plane
    return (sum(len(v) for v in cp.flow_samples.values())
            + len(cp.jitter_samples) + len(cp.aggregate_samples)
            + len(cp.microbursts) + len(cp.terminations)
            + len(cp.limiter_reports) + len(cp.histogram_reports)
            + len(cp.forensics_reports) + len(cp.alerts.history))


def digest(sut) -> str:
    """Hash over the simulated results.  A simulator-only speed-up leaves
    it unchanged; a change that moves it has changed behaviour."""
    mon = sut.monitor
    store = archiver_of(sut).store
    doc = {
        "events": sut.sim.events_run,
        "copies": [mon.copies_ingress, mon.copies_egress],
        # every register, sketch and counter cell: per-flow bytes,
        # packets, loss, RTT, queue delay
        "state": mon.program.state_digest(),
        "rtt": [mon.rtt_loss.rtt_matches, mon.rtt_loss.rtt_misses,
                mon.rtt_loss.rtt_stale],
        "queue": [mon.queue.pairs_matched, mon.queue.pairs_missed],
        "docs": {index: store.count(index) for index in store.indices},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _ratio(num: float, *rest: float) -> float:
    den = num + sum(rest)
    return num / den if den else 0.0


def counts(sut) -> Dict[str, float]:
    """The exact per-layer counts, all from public attributes."""
    mon, cp, sim = sut.monitor, sut.control_plane, sut.sim
    arch = archiver_of(sut)
    prog = mon.program
    out = {
        "netsim.engine.events": sim.events_run,
        "netsim.engine.queue_hwm": sim.queue_hwm,
        "netsim.link.tx_packets": 0,
        "netsim.link.drops": 0,
        "netsim.tap.copies": mon.copies_ingress + mon.copies_egress,
        "netsim.tap.copies_lost": 0,
        "tcp.segments_sent": 0,
        "tcp.retransmissions": 0,
        "tcp.goodput_mbps": 0.0,
        "p4.register_ops": sum(a.ops for a in prog.registers.values()),
        "p4.sketch_ops": sum(c.updates + c.queries for c in prog.sketches.values()),
        "p4.digest_msgs": sum(d.emitted + d.dropped for d in prog.digests.values()),
        "p4.register_reads": cp.runtime.register_reads,
        "core.stages.rtt_match_ratio": _ratio(
            mon.rtt_loss.rtt_matches, mon.rtt_loss.rtt_misses, mon.rtt_loss.rtt_stale),
        "core.stages.rtt_stash_evictions": mon.rtt_loss.stash_evictions,
        "core.stages.queue_pair_ratio": _ratio(
            mon.queue.pairs_matched, mon.queue.pairs_missed),
        "core.stages.slot_collisions": mon.flow_table.slot_collisions,
        "core.batch.scalar_share": 0.0 if mon.kernel is not None else 1.0,
        "core.control_plane.flows_tracked": len(cp.flows),
        "core.control_plane.reports_shipped": reports_shipped(sut),
        "perfsonar.logstash.events_in": arch.pipeline.events_in,
        "perfsonar.logstash.events_dropped": arch.pipeline.events_dropped,
        "perfsonar.archive.docs_written": arch.output.documents_written,
        "perfsonar.archive.duplicates_dropped": arch.output.duplicates_dropped,
    }
    topo = sut.topology
    if topo is not None:
        ports = [p for node in (topo.core_switch, topo.wan_switch, *topo.all_hosts)
                 for p in node.ports]
        out["netsim.link.tx_packets"] = sum(p.tx_packets for p in ports)
        out["netsim.link.drops"] = sum(p.drops for p in ports)
        out["netsim.tap.copies"] = topo.tap.copies_ingress + topo.tap.copies_egress
        out["netsim.tap.copies_lost"] = topo.tap.copies_lost
        stats = [h.stats for h in sut.flows]
        out["tcp.segments_sent"] = sum(s.segments_sent for s in stats)
        out["tcp.retransmissions"] = sum(s.retransmissions for s in stats)
        out["tcp.goodput_mbps"] = sum(s.avg_throughput_bps() for s in stats) / 1e6
    return out


def _rtt_err_pct(cp: MonitorControlPlane, truth_ms: Dict[int, List[float]]) -> float:
    """Mean over tracked flows of |median(control-plane RTT samples) -
    median(true path RTT)| / true median, in percent.  ``truth_ms`` maps
    flow_id to the true samples; flows with no samples on either side are
    left out, and no flow at all reads 0."""
    seen_ms: Dict[int, List[float]] = {}
    for sample in cp.flow_samples[MetricKind.RTT]:
        seen_ms.setdefault(sample.flow_id, []).append(sample.value)
    errs = []
    for fid, truth in truth_ms.items():
        seen = seen_ms.get(fid)
        if seen and truth:
            true_median = statistics.median(truth)
            errs.append(abs(statistics.median(seen) - true_median) / true_median)
    return 100.0 * statistics.fmean(errs) if errs else 0.0


# -- dmz_bulk / dmz_observed: the Fig. 8 scenario ---------------------------


@dataclass
class DmzInput:
    starts_s: Tuple[float, ...]
    flow_s: float
    until_s: float


@dataclass
class DmzWorkload:
    """Three CUBIC flows over the Fig. 8 Science-DMZ topology at 100 Mb/s,
    MSS 1448.  ``observed`` enables telemetry before construction and
    snapshots it inside the timed region (what ``repro-experiments fig9
    --telemetry`` does), which binds the scalar pipeline."""

    name: str
    observed: bool

    def generate(self, seed: int, smoke: bool) -> DmzInput:
        rng = random.Random(seed)
        flow_s = 0.7 if smoke else 10.0
        return DmzInput(starts_s=tuple(rng.uniform(0.0, 0.005) for _ in range(3)),
                        flow_s=flow_s, until_s=flow_s * 1.1)

    def _scenario(self, inp: DmzInput) -> Scenario:
        scenario = Scenario(
            ScenarioConfig(bottleneck_mbps=100, rtts_ms=(20, 30, 40),
                           reference_rtt_ms=40, mss=1448),
            with_perfsonar=True)
        for dst, start in enumerate(inp.starts_s):
            scenario.add_flow(dst, start_s=start, duration_s=inp.flow_s, cc="cubic")
        return scenario

    def setup(self) -> Scenario:
        return self.build(self.generate(0, smoke=True))

    def build(self, inp: DmzInput) -> Scenario:
        if not self.observed:
            return self._scenario(inp)
        # Telemetry is process-global and bound at construction; a fresh
        # registry per repetition keeps collectors of dead scenarios out.
        telemetry.reset()
        telemetry.enable()
        return self._scenario(inp)

    def run(self, scenario: Scenario, inp: DmzInput) -> None:
        scenario.run(inp.until_s)
        if self.observed:
            telemetry.snapshot()
            telemetry.disable()  # off again for whatever this process builds next

    def check(self, inp: DmzInput, last: Scenario):
        """One more run with the ground-truth oracle attached.  Both dmz
        workloads check the batched, unobserved scenario, so
        ``dmz_observed``'s scalar-path repetitions have to match a
        batched run's digest -- an equivalence check at full size."""
        scenario = self._scenario(inp)
        stream = EventStream()
        observe_topology(scenario.topology, stream=stream)
        oracle = GroundTruthOracle(
            stream, rtt_max_age_ns=scenario.monitor.config.rtt_max_age_ns)
        scenario.run(inp.until_s)
        report = DifferentialChecker(scenario.control_plane, oracle).check()
        # ``loss_proxy`` compares sequence regressions with true drops
        # under a 3x+10 envelope; at this scale the TCP model retransmits
        # ~6 segments per drop in some recovery episodes, so the envelope
        # fails on 10 of 32 seeds tried, whatever the code under test
        # does.  A workload may hold no operation that fails, so the
        # proxy is left out; the exact ``loss_regressions`` check on the
        # same register stays.
        results = [r for r in report.results if r.metric != "loss_proxy"]
        truth_ms = {}
        for flow in scenario.control_plane.flows.values():
            truth = oracle.truth_for(FiveTuple(flow.src_ip, flow.dst_ip, flow.src_port,
                                               flow.dst_port, PROTO_TCP))
            if truth is not None:
                truth_ms[flow.flow_id] = [r / 1e6 for r in truth.rtt_values_ns]
        return (scenario, len(results), sum(not r.passed for r in results),
                _rtt_err_pct(scenario.control_plane, truth_ms))


# -- tap_replay / report_ingest: a generated copy stream, no network --------

ADVANCE_NS = 100_000_000  # capture time between clock advances (and flushes)

_FLOW_DOC = ("flow_id", "source_ip", "destination_ip", "source_port",
             "destination_port", "value", "boosted")
_DOC_FIELDS = {
    "p4_aggregate": ("link_utilization", "jain_fairness", "active_flows",
                     "total_bytes", "total_packets"),
    "p4_limiter": ("flow_id", "source_ip", "destination_ip", "verdict",
                   "flight_bytes", "flight_cv", "loss_delta", "rwnd_bytes"),
}
_COMMON_DOC = ("type", "@timestamp", "@version", "host", "tags")


@dataclass
class ReplayWorkload:
    """Feeds generated ``MirrorCopy`` objects straight into
    ``P4Monitor.receive_copy`` and advances the simulator clock every
    ``ADVANCE_NS`` of capture time, which sets the flush cadence."""

    name: str
    flows: int
    packets: Tuple[int, int]     # segments per flow, lo..hi
    gap_ns: int                  # between a flow's segments, +/-50 %
    long_flow_bytes: int
    samples_per_second: float    # every metric class

    def generate(self, seed: int, smoke: bool) -> ReplayInput:
        flows = max(8, self.flows // 20) if smoke else self.flows
        return replay_stream(seed, flows, self.packets, self.gap_ns, ADVANCE_NS)

    def setup(self) -> ReplaySut:
        return self.build(None)

    def build(self, inp: Optional[ReplayInput]) -> ReplaySut:
        config = MonitorConfig(long_flow_bytes=self.long_flow_bytes)
        for kind in MetricKind:
            config.metric(kind).samples_per_second = self.samples_per_second
        sim = Simulator()
        monitor = P4Monitor(config, sim=sim)
        archiver = Archiver()
        control_plane = MonitorControlPlane(sim, monitor, report_sink=archiver.sink)
        control_plane.start()
        return ReplaySut(sim, monitor, control_plane, archiver)

    def run(self, sut: ReplaySut, inp: ReplayInput) -> None:
        receive = sut.monitor.receive_copy
        run_until = sut.sim.run_until
        for until_ns, copies in inp.slices:
            for copy in copies:
                receive(copy)
            run_until(until_ns)

    def check(self, inp: ReplayInput, sut: ReplaySut):
        """The generator knows the truth, so the last repetition's own
        end state is checked; no further run is needed."""
        results = self._check_registers(sut, inp) + self._check_archive(sut)
        truth_ms = {fid: (flow.rtt_ns / 1e6).tolist()
                    for flow, fid in zip(inp.flows, self._flow_ids(inp))}
        return (sut, len(results), results.count(False),
                _rtt_err_pct(sut.control_plane, truth_ms))

    @staticmethod
    def _flow_ids(inp: ReplayInput) -> List[int]:
        return [crc32_tuple(FiveTuple(f.src_ip, f.dst_ip, f.src_port, f.dst_port,
                                      PROTO_TCP)) for f in inp.flows]

    def _check_registers(self, sut: ReplaySut, inp: ReplayInput) -> List[bool]:
        """Per flow, the registers equal the generator's exact counts:
        ``pkt_loss`` for every flow, ``flow_pkts`` / ``flow_bytes`` (which
        count from the slot claim and are cleared on eviction) for flows
        still tracked at the end.  A flow whose register index another
        generated flow shares holds a sum over both, so it is left out
        (``core.stages.slot_collisions`` counts those)."""
        mon, cp = sut.monitor, sut.control_plane
        mask = mon.config.flow_slots - 1
        fids = self._flow_ids(inp)
        shared: Dict[int, int] = {}
        for fid in fids:
            shared[fid & mask] = shared.get(fid & mask, 0) + 1
        read = cp.runtime.read_register
        results = []
        for flow, fid in zip(inp.flows, fids):
            if shared[fid & mask] > 1:
                continue
            results.append(read("pkt_loss", fid & mask) == flow.regressions)
            tracked = cp.flows.get(fid)
            if tracked is None or tracked.evicted:
                continue
            since_claim = int(flow.data_ts.size - np.searchsorted(
                flow.data_ts, tracked.first_seen_ns, side="left"))
            results.append(read("flow_pkts", tracked.slot) == since_claim)
            results.append(read("flow_bytes", tracked.slot)
                           == since_claim * inp.ip_total_len)
        results.append(bool(results))  # no flow checked counts as a failure
        results.append(mon.rtt_loss.rtt_matches <= sum(f.acks for f in inp.flows))
        results.append(mon.copies_ingress == inp.copies_ingress
                       and mon.copies_egress == inp.copies_egress)
        return results

    @staticmethod
    def _check_archive(sut: ReplaySut) -> List[bool]:
        arch = sut.archiver
        results = [
            arch.output.documents_written == reports_shipped(sut),
            arch.pipeline.events_dropped == 0,
            arch.output.duplicates_dropped == 0,
        ]
        for index in arch.store.indices:
            doc = arch.store.search(index, size=1)[0]
            fields = _COMMON_DOC + _DOC_FIELDS.get(doc.get("type"), _FLOW_DOC)
            results.append(all(name in doc for name in fields))
        return results


WORKLOADS = {w.name: w for w in (
    DmzWorkload("dmz_bulk", observed=False),
    DmzWorkload("dmz_observed", observed=True),
    # 256 flows x 750 segments, one every ~10.4 ms per flow: ~580k copies
    # over ~7.8 s of capture, ~7400 per 100 ms slice -- one large flush
    # per slice, just under the monitor's own 8192-copy trigger.
    ReplayWorkload("tap_replay", flows=256, packets=(750, 750),
                   gap_ns=10_400_000, long_flow_bytes=100_000,
                   samples_per_second=1.0),
    # 1500 long-lived thin flows into 2048 slots, every metric class at
    # 10 samples/s: ~1100 flows stay tracked, so extraction, report
    # building, Logstash and the archive do most of the work.
    ReplayWorkload("report_ingest", flows=1500, packets=(10, 16),
                   gap_ns=250_000_000, long_flow_bytes=10_000,
                   samples_per_second=10.0),
)}
