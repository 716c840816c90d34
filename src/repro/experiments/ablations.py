"""Ablations of the design choices DESIGN.md §5 calls out.

1. Count-min-sketch geometry vs long-flow detection error.
2. eACK signature-table size vs RTT sample hit rate.
3. Control-plane sampling vs data-plane microburst detection (§4.2's
   argument for putting the detector in the data plane).
4. Alert-triggered rate boost: samples captured during an anomaly.
5. Congestion-control signatures seen by the passive monitor (extension:
   the related-work P4CCI direction — CCAs are distinguishable from the
   wire metrics the monitor already collects).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import MetricKind
from repro.core.reports import MicroburstEvent
from repro.experiments.claims import Claim, claim, ratio
from repro.experiments.common import Scenario, ScenarioConfig, window
from repro.netsim.packet import FiveTuple
from repro.p4.sketch import CountMinSketch
from repro.viz import render_table


# -- 1. CMS geometry ------------------------------------------------------------


@dataclass
class CmsAblationRow:
    width: int
    depth: int
    conservative: bool
    mean_overestimate: float
    false_long_flows: int
    memory_cells: int


def ablate_cms(
    widths: Tuple[int, ...] = (256, 1024, 4096),
    depths: Tuple[int, ...] = (1, 3),
    n_flows: int = 5000,
    long_flow_bytes: int = 100_000,
    seed: int = 11,
) -> List[CmsAblationRow]:
    """Synthetic heavy-tailed traffic: a few elephants over many mice.
    Measures the CMS overestimate and how many mice it would wrongly
    promote to 'long flow' (wasting the 2048 register slots)."""
    rng = random.Random(seed)
    flows: List[Tuple[FiveTuple, int]] = []
    for i in range(n_flows):
        ft = FiveTuple(
            src_ip=0x0A000000 + rng.randrange(1 << 16),
            dst_ip=0x0A010000 + rng.randrange(1 << 16),
            src_port=rng.randrange(1024, 65535),
            dst_port=5201,
        )
        # Pareto-ish sizes: 1% elephants far above the threshold.
        size = int(rng.paretovariate(1.2) * 1000)
        flows.append((ft, size))

    rows: List[CmsAblationRow] = []
    for conservative in (False, True):
        for depth in depths:
            for width in widths:
                cms = CountMinSketch(width=width, depth=depth, conservative=conservative)
                for ft, size in flows:
                    cms.update_tuple(ft, size)
                over, false_long = [], 0
                for ft, size in flows:
                    est = cms.query_tuple(ft)
                    over.append(est - size)
                    if est >= long_flow_bytes and size < long_flow_bytes:
                        false_long += 1
                rows.append(CmsAblationRow(
                    width=width, depth=depth, conservative=conservative,
                    mean_overestimate=sum(over) / len(over),
                    false_long_flows=false_long,
                    memory_cells=cms.memory_cells(),
                ))
    return rows


def cms_table(rows: List[CmsAblationRow]) -> str:
    return render_table(
        ["width", "depth", "conservative", "mean overestimate (B)",
         "false long flows", "cells"],
        [(r.width, r.depth, r.conservative, f"{r.mean_overestimate:.0f}",
          r.false_long_flows, r.memory_cells) for r in rows],
    )


def cms_claims(rows: List[CmsAblationRow]) -> List[Claim]:
    over = {(r.width, r.depth, r.conservative): r.mean_overestimate
            for r in rows}
    widths = sorted({r.width for r in rows})
    lo, hi = min(r.depth for r in rows), max(r.depth for r in rows)
    widest = (widths[-1], hi, False)
    # Worst case over the depths or widths; conservative update can only
    # differ from plain with more than one row.
    return [
        claim("ablation.cms_widest_over_narrowest_error",
              max(over[(widths[-1], d, False)] / over[(widths[0], d, False)]
                  for d in (lo, hi)), "<", 1.0),
        claim("ablation.cms_deep_over_shallow_error",
              max(over[(w, hi, False)] / over[(w, lo, False)]
                  for w in widths), "<", 1.0),
        claim("ablation.cms_conservative_over_plain_error",
              max(over[(w, hi, True)] / over[(w, hi, False)]
                  for w in widths), "<", 1.0),
        claim("ablation.cms_false_long_flows_at_widest",
              next(r.false_long_flows for r in rows
                   if (r.width, r.depth, r.conservative) == widest), "==", 0),
    ]


# -- 2. eACK table size ------------------------------------------------------------


@dataclass
class EackAblationRow:
    table_size: int
    rtt_matches: int
    rtt_misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.rtt_matches + self.rtt_misses
        return self.rtt_matches / total if total else 0.0


def ablate_eack_size(
    sizes: Tuple[int, ...] = (256, 4096, 65536),
    duration_s: float = 10.0,
) -> List[EackAblationRow]:
    """Same 2-flow workload, varying the signature table; small tables
    lose RTT samples to eviction/collision."""
    rows = []
    for size in sizes:
        cfg = ScenarioConfig(
            bottleneck_mbps=50.0,
            monitor_overrides={"eack_table_size": size},
        )
        scenario = Scenario(cfg, with_perfsonar=False)
        scenario.add_flow(0, duration_s=duration_s)
        scenario.add_flow(1, duration_s=duration_s)
        scenario.run(duration_s + 1.0)
        stage = scenario.monitor.rtt_loss
        rows.append(EackAblationRow(
            table_size=size,
            rtt_matches=stage.rtt_matches,
            rtt_misses=stage.rtt_misses,
            evictions=stage.stash_evictions,
        ))
    return rows


def eack_table(rows: List[EackAblationRow]) -> str:
    return render_table(
        ["table size", "RTT matches", "misses", "evictions", "hit rate"],
        [(r.table_size, r.rtt_matches, r.rtt_misses, r.evictions,
          f"{100 * r.hit_rate:.1f}%") for r in rows],
    )


def eack_claims(rows: List[EackAblationRow]) -> List[Claim]:
    """``rows`` in growing table size."""
    hits = [r.hit_rate for r in rows]
    return [
        claim("ablation.eack_min_hit_rate_step",
              min(b - a for a, b in zip(hits, hits[1:])), ">=", 0.0),
        claim("ablation.eack_largest_hit_rate", hits[-1], ">", 0.8),
        claim("ablation.eack_evictions_saved",
              rows[0].evictions - rows[-1].evictions, ">", 0),
    ]


# -- 3. sampling vs data-plane microburst detection --------------------------------


@dataclass
class SamplingAblationResult:
    injected_bursts: int
    dataplane_bursts: int
    sampled_bursts_by_interval: Dict[float, int]

    def table(self) -> str:
        rows = [("data plane (per packet)", self.dataplane_bursts)]
        for interval, count in sorted(self.sampled_bursts_by_interval.items()):
            rows.append((f"control-plane sampling @ {interval:.2f}s", count))
        return render_table(["detector", "bursts seen"], rows)


def ablate_sampling_vs_dataplane(
    sample_intervals_s: Tuple[float, ...] = (1.0, 0.1, 0.01),
    n_bursts: int = 5,
    duration_s: float = 24.0,
) -> SamplingAblationResult:
    """Inject short line-rate bursts into an otherwise idle bottleneck.
    The data plane sees each burst per-packet; a control plane that only
    samples queue occupancy every t_Q seconds misses bursts that start
    and drain between samples (§4.2)."""
    cfg = ScenarioConfig(
        bottleneck_mbps=100.0,
        buffer_bdp_fraction=0.25,
        # Low background so bursts drain quickly (microseconds-scale at
        # paper rates; milliseconds here).
        monitor_overrides={"long_flow_bytes": 10_000},
    )
    scenario = Scenario(cfg, with_perfsonar=False)
    # A light paced flow keeps the flow table populated so queue samples
    # exist, without congesting the link.
    scenario.add_flow(0, duration_s=duration_s, rate_mbps=5.0)
    buffer_bytes = scenario.config.topology_config().buffer_bytes()
    burst_times = [4.0 + i * (duration_s - 8.0) / n_bursts for i in range(n_bursts)]
    for t in burst_times:
        scenario.inject_burst(t, nbytes=int(1.5 * buffer_bytes))
    scenario.run(duration_s)

    bursts = scenario.microbursts()

    # Reconstruct what sampling alone would have seen: per-flow queue
    # occupancy samples crossing the burst threshold.
    sampled: Dict[float, int] = {}
    for interval in sample_intervals_s:
        # Resample the recorded per-packet queue delays at the interval.
        events = _sampled_burst_count(scenario, bursts, interval)
        sampled[interval] = events
    return SamplingAblationResult(
        injected_bursts=n_bursts, dataplane_bursts=len(bursts),
        sampled_bursts_by_interval=sampled,
    )


def sampling_claims(result: SamplingAblationResult) -> List[Claim]:
    sampled = result.sampled_bursts_by_interval
    slowest, fastest = sampled[max(sampled)], sampled[min(sampled)]
    return [
        claim("ablation.sampling_dataplane_burst_share",
              result.dataplane_bursts / result.injected_bursts, ">=", 0.8),
        claim("ablation.sampling_slowest_missed_bursts",
              result.dataplane_bursts - slowest, ">", 0),
        claim("ablation.sampling_fastest_minus_slowest_bursts",
              fastest - slowest, ">=", 0),
    ]


def _sampled_burst_count(scenario: Scenario, bursts: List[MicroburstEvent],
                         interval_s: float) -> int:
    """How many injected bursts a sampling observer catches: a burst
    counts as seen if any sample instant falls inside a high-occupancy
    excursion recorded by the data plane."""
    excursions = [(b.start_ns, b.start_ns + b.duration_ns) for b in bursts]
    seen = set()
    t = 0.0
    duration = scenario.sim.now / 1e9
    while t <= duration:
        ts = t * 1e9
        for i, (lo, hi) in enumerate(excursions):
            if lo <= ts <= hi:
                seen.add(i)
        t += interval_s
    return len(seen)


# -- 4. alert-triggered boost ----------------------------------------------------


@dataclass
class BoostAblationResult:
    samples_with_boost: int
    samples_without_boost: int
    alerts_raised: int

    def table(self) -> str:
        return render_table(
            ["configuration", "queue samples in anomaly window"],
            [("alert boost ON (10/s over 30%)", self.samples_with_boost),
             ("alert boost OFF (1/s)", self.samples_without_boost)],
        )


# -- 6. INT baseline vs the passive TAP ---------------------------------------


@dataclass
class IntComparisonResult:
    """Passive TAP vs in-band telemetry over the same workload."""

    tap_goodput_bps: float
    int_goodput_bps: float
    tap_wire_overhead_bytes: int      # always 0: TAP copies ride dark fibre
    int_wire_overhead_bytes: int
    tap_saw_queue: bool               # monitor measured the congested queue
    int_saw_queue: bool               # collector saw queue depth per hop
    int_postcards: int
    duration_s: float

    @property
    def goodput_penalty_pct(self) -> float:
        if self.tap_goodput_bps <= 0:
            return 0.0
        return 100.0 * (1 - self.int_goodput_bps / self.tap_goodput_bps)

    def table(self) -> str:
        return render_table(
            ["system", "goodput (Mbps)", "wire overhead (kB)", "queue visibility"],
            [
                ("passive TAP (paper)", f"{self.tap_goodput_bps / 1e6:.2f}",
                 f"{self.tap_wire_overhead_bytes / 1e3:.1f}",
                 "yes" if self.tap_saw_queue else "no"),
                ("INT (related work)", f"{self.int_goodput_bps / 1e6:.2f}",
                 f"{self.int_wire_overhead_bytes / 1e3:.1f}",
                 "yes" if self.int_saw_queue else "no"),
            ],
        )


def ablate_int_overhead(duration_s: float = 10.0,
                        bottleneck_mbps: float = 30.0,
                        mss: int = 1448) -> IntComparisonResult:
    """Same saturating transfer over (a) legacy switches + TAP monitor and
    (b) INT transit switches + collector.  Both see the congested queue;
    only INT pays for it on the wire (per-packet metadata), which at a
    saturated bottleneck comes straight out of goodput.  The small MSS
    makes the per-packet overhead visible, as on a 1500 B-MTU WAN."""
    from repro.core.config import MonitorConfig
    from repro.core.monitor import P4Monitor
    from repro.netsim.engine import Simulator
    from repro.netsim.host import Host
    from repro.netsim.link import connect
    from repro.netsim.tap import OpticalTap
    from repro.netsim.units import mbps, millis, seconds
    from repro.p4.int import IntCollector, IntSink, IntTransitSwitch
    from repro.netsim.switch import LegacySwitch
    from repro.tcp.apps import start_transfer
    from repro.tcp.stack import TcpHostStack

    results = {}
    overhead = {"tap": 0, "int": 0}
    queue_seen = {}
    postcards = 0
    rate = mbps(bottleneck_mbps)

    for mode in ("tap", "int"):
        sim = Simulator()
        a = Host(sim, "src", "10.0.0.1")
        b = Host(sim, "dst", "10.0.0.2")
        if mode == "int":
            sw1 = IntTransitSwitch(sim, "sw1", switch_id=1)
            sw2 = IntTransitSwitch(sim, "sw2", switch_id=2)
        else:
            sw1 = LegacySwitch(sim, "sw1")
            sw2 = LegacySwitch(sim, "sw2")
        buf = 120_000
        l1 = connect(sim, a, sw1, 4 * rate, millis(1))
        lb = connect(sim, sw1, sw2, rate, millis(8),
                     queue_bytes_a=buf, queue_bytes_b=buf)
        l2 = connect(sim, sw2, b, 4 * rate, millis(1))
        sw1.add_route(b.ip, lb.a)
        sw1.add_route(a.ip, l1.b)
        sw2.add_route(b.ip, l2.a)
        sw2.add_route(a.ip, lb.b)

        monitor = None
        collector = None
        if mode == "tap":
            monitor = P4Monitor(MonitorConfig(
                bottleneck_rate_bps=rate, buffer_bytes=buf,
                long_flow_bytes=20_000,
            ), sim=sim)
            OpticalTap(sim, sw1, monitor.receive_copy, egress_ports=[lb.a])
        else:
            collector = IntCollector()
            IntSink(sim, b, collector)

        cstack = TcpHostStack(sim, a, default_mss=mss)
        sstack = TcpHostStack(sim, b, default_mss=mss)
        client, server = start_transfer(sim, cstack, sstack, b.ip,
                                        duration_s=duration_s)
        sim.run_until(seconds(duration_s + 2.0))
        results[mode] = server.total_bytes * 8 / duration_s

        if mode == "tap":
            snap = monitor.queue.flow_qdelay_max.snapshot()
            queue_seen[mode] = bool(snap.max() > 0)
        else:
            overhead["int"] = collector.telemetry_overhead_bytes()
            queue_seen[mode] = collector.max_queue_depth(1) > 0
            postcards = len(collector)

    return IntComparisonResult(
        tap_goodput_bps=results["tap"],
        int_goodput_bps=results["int"],
        tap_wire_overhead_bytes=overhead["tap"],
        int_wire_overhead_bytes=overhead["int"],
        tap_saw_queue=queue_seen["tap"],
        int_saw_queue=queue_seen["int"],
        int_postcards=postcards,
        duration_s=duration_s,
    )


def int_claims(result: IntComparisonResult) -> List[Claim]:
    return [
        claim("ablation.int_observers_seeing_queue",
              result.tap_saw_queue + result.int_saw_queue, "==", 2),
        claim("ablation.tap_wire_overhead_bytes",
              result.tap_wire_overhead_bytes, "==", 0),
        claim("ablation.int_wire_overhead_bps",
              result.int_wire_overhead_bytes * 8 / result.duration_s,
              ">", 80_000),
        claim("ablation.int_goodput_penalty_pct",
              result.goodput_penalty_pct, "in", (0.0, 10.0)),
    ]


# -- 5. CCA signatures through the monitor ------------------------------------


@dataclass
class CcaSignatureRow:
    cc: str
    throughput_mbps: float
    mean_rtt_ms: float
    mean_queue_occupancy_pct: float
    retransmissions: int
    verdict: str
    bottleneck_mbps: float
    base_rtt_ms: float


def ablate_cca_signatures(
    ccas: Tuple[str, ...] = ("cubic", "reno", "bbr"),
    duration_s: float = 15.0,
    bottleneck_mbps: float = 50.0,
) -> List[CcaSignatureRow]:
    """One solo flow per CCA over the same path; the monitor's passive
    metrics alone separate them: loss-based CCAs fill the buffer (high
    occupancy, inflated RTT, periodic retransmissions) while BBR holds a
    small standing queue with ~zero loss — the wire-visible signatures
    P4CCI classifies on."""

    rows: List[CcaSignatureRow] = []
    base_rtt_ms = 40.0
    for cc in ccas:
        scenario = Scenario(
            ScenarioConfig(bottleneck_mbps=bottleneck_mbps,
                           rtts_ms=(base_rtt_ms,) * 3,
                           reference_rtt_ms=base_rtt_ms),
            with_perfsonar=False,
        )
        handle = scenario.add_flow(0, duration_s=duration_s, cc=cc)
        scenario.run(duration_s + 1.5)
        lo, hi = duration_s * 0.3, duration_s
        thr = window(scenario.throughput_series_mbps(handle), lo, hi)
        rtt = window(scenario.monitor_series(handle, MetricKind.RTT), lo, hi)
        occ = window(
            scenario.monitor_series(handle, MetricKind.QUEUE_OCCUPANCY), lo, hi)
        tracked = scenario.monitored_flow(handle)
        retx = scenario.control_plane.runtime.read_register(
            "pkt_loss", tracked.slot)
        rows.append(CcaSignatureRow(
            cc=cc,
            throughput_mbps=sum(thr) / len(thr) if thr else 0.0,
            mean_rtt_ms=sum(rtt) / len(rtt) if rtt else 0.0,
            mean_queue_occupancy_pct=sum(occ) / len(occ) if occ else 0.0,
            retransmissions=retx,
            verdict=scenario.verdict(tracked).value,
            bottleneck_mbps=bottleneck_mbps,
            base_rtt_ms=base_rtt_ms,
        ))
    return rows


def cca_claims(rows: List[CcaSignatureRow]) -> List[Claim]:
    """Over rows for (at least) cubic, reno and bbr."""
    by_cc = {r.cc: r for r in rows}
    cubic, bbr = by_cc["cubic"], by_cc["bbr"]
    loss_based = (cubic, by_cc["reno"])
    expected = {"cubic": "network", "reno": "network", "bbr": "sender"}
    return [
        claim("ablation.cca_min_link_share",
              min(r.throughput_mbps / r.bottleneck_mbps for r in rows),
              ">", 0.85),
        claim("ablation.cca_loss_based_min_queue_pct",
              min(r.mean_queue_occupancy_pct for r in loss_based), ">", 80.0),
        claim("ablation.cca_bbr_over_cubic_queue",
              ratio(bbr.mean_queue_occupancy_pct,
                    cubic.mean_queue_occupancy_pct), "<", 0.8),
        claim("ablation.cca_bbr_over_cubic_rtt",
              ratio(bbr.mean_rtt_ms, cubic.mean_rtt_ms), "<", 1.0),
        claim("ablation.cca_bbr_rtt_over_base",
              bbr.mean_rtt_ms / bbr.base_rtt_ms, "<", 1.5),
        claim("ablation.cca_loss_based_min_retransmissions",
              min(r.retransmissions for r in loss_based), ">", 0),
        claim("ablation.cca_bbr_retransmissions", bbr.retransmissions, "==", 0),
        # bbr's stable flight and zero loss trip the sender-limited
        # branch: a documented caveat of the Dapper heuristic.
        claim("ablation.cca_expected_verdicts",
              sum(by_cc[cc].verdict == v for cc, v in expected.items()),
              "==", len(expected)),
    ]


def cca_table(rows: List[CcaSignatureRow]) -> str:
    return render_table(
        ["CCA", "throughput (Mbps)", "RTT (ms)", "queue occ (%)",
         "retransmissions", "limiter verdict"],
        [(r.cc, f"{r.throughput_mbps:.1f}", f"{r.mean_rtt_ms:.1f}",
          f"{r.mean_queue_occupancy_pct:.0f}", r.retransmissions, r.verdict)
         for r in rows],
    )


def ablate_alert_boost(duration_s: float = 20.0, congest_s: float = 8.0) -> BoostAblationResult:
    """Fig. 6 line 3's policy: boost queue-occupancy reporting to 10/s
    when occupancy exceeds 30 %.  Measures samples captured during the
    congestion episode with and without the boost."""
    counts = []
    alerts = 0
    for boosted in (True, False):
        scenario = Scenario(ScenarioConfig(bottleneck_mbps=50.0), with_perfsonar=False)
        if boosted:
            scenario.control_plane.apply_metric_config(
                MetricKind.QUEUE_OCCUPANCY,
                alert_enabled=True, alert_threshold=30.0,
                boosted_samples_per_second=10.0,
            )
        # Congest the link mid-run with two competing flows.
        scenario.add_flow(0, start_s=congest_s, duration_s=duration_s - congest_s)
        scenario.add_flow(1, start_s=congest_s, duration_s=duration_s - congest_s)
        scenario.run(duration_s)
        samples = scenario.archiver.series("p4_queue_occupancy")
        counts.append(len(window(samples, congest_s, math.inf)))
        if boosted:
            alerts = scenario.archiver.count("p4_alert")
    return BoostAblationResult(
        samples_with_boost=counts[0],
        samples_without_boost=counts[1],
        alerts_raised=alerts,
    )


def boost_claims(result: BoostAblationResult) -> List[Claim]:
    return [
        claim("ablation.boost_sample_gain",
              ratio(result.samples_with_boost, result.samples_without_boost),
              ">", 3.0),
        claim("ablation.boost_alerts_raised", result.alerts_raised, ">=", 1),
    ]
