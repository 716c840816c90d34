"""Fig. 11 / §5.4.1 — detecting small-sized buffers via microbursts.

Paper setup: flows at the reference 100 ms RTT; the guideline buffer is
1 BDP but the switch is configured with **BDP/4**.  A microburst — here,
as in §5.2, the slow-start burst of a transfer joining the network —
bloats the shallow queue.  The system reports the burst with nanosecond
start/duration, and the collateral matches the paper's: the packet-loss
percentage escalates for the two pre-existing flows (one above ~0.05 %,
one above ~0.15 % in the paper's units) and their throughput needs tens
of seconds to recover.

An optional line-rate UDP packet train (``inject_burst_buffers``) adds a
pure microburst with no congestion-control reaction, used by the
sampling-vs-data-plane ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import MetricKind
from repro.core.reports import MicroburstEvent
from repro.experiments.claims import Claim, claim, claims_table
from repro.experiments.common import FlowHandle, Scenario, ScenarioConfig, mean, window
from repro.viz import timeseries_panel


@dataclass
class Fig11Result:
    scenario: Scenario
    handles: List[FlowHandle]
    burst_s: float                      # when the joining flow's burst hits
    duration_s: float
    microbursts: List[MicroburstEvent]
    throughput_mbps: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    loss_pct: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    queue_occupancy_pct: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def bursts_near_injection(self, slack_s: float = 4.0) -> List[MicroburstEvent]:
        lo = (self.burst_s - slack_s) * 1e9
        hi = (self.burst_s + slack_s) * 1e9
        return [b for b in self.microbursts if lo <= b.start_ns <= hi]

    def loss_spikes(self) -> List[float]:
        """Max loss %% of the two pre-existing flows after the burst."""
        lo, hi = self.burst_s, self.burst_s + 6.0
        labels = list(self.loss_pct)[:2]
        return [max(window(self.loss_pct[l], lo, hi), default=0.0) for l in labels]

    def recovery_times_s(self, fraction: float = 0.75) -> List[float]:
        """Per pre-existing flow: time from the burst until its
        throughput is back above ``fraction`` of its pre-burst mean —
        the paper's ≈25 s observation."""
        out = []
        for label in list(self.throughput_mbps)[:2]:
            series = self.throughput_mbps[label]
            pre = mean(window(series, self.burst_s - 6.0, self.burst_s - 1.0))
            if pre <= 0:
                out.append(0.0)
                continue
            recovered = self.duration_s - self.burst_s
            t = self.burst_s + 1.0
            while t + 2.0 <= self.duration_s:
                if mean(window(series, t, t + 2.0)) >= fraction * pre:
                    recovered = t - self.burst_s
                    break
                t += 1.0
            out.append(recovered)
        return out

    def summary(self) -> str:
        near = self.bursts_near_injection()
        lines = [
            timeseries_panel(self.throughput_mbps,
                             "Per-flow throughput (BDP/4 buffer)", unit="Mbps"),
            timeseries_panel(self.loss_pct, "Per-flow packet loss", unit="%"),
            timeseries_panel(self.queue_occupancy_pct, "Queue occupancy", unit="%"),
            f"microbursts detected: {len(self.microbursts)} total, "
            f"{len(near)} around the join burst",
        ]
        for b in near[:3]:
            lines.append(
                f"  burst @ {b.start_ns / 1e9:.6f}s duration {b.duration_ns / 1e6:.3f}ms "
                f"peak occupancy {100 * b.peak_occupancy:.0f}% ({b.packets} pkts)"
            )
        lines.append(
            "loss spikes on pre-existing flows: "
            f"{[round(v, 3) for v in self.loss_spikes()]} %"
        )
        lines.append(
            "throughput recovery times: "
            f"{[round(v, 1) for v in self.recovery_times_s()]} s"
        )
        lines.append(claims_table(claims(self)))
        return "\n".join(lines)


def claims(result: Fig11Result) -> List[Claim]:
    near = result.bursts_near_injection()
    spikes = sorted(result.loss_spikes(), reverse=True) + [0.0, 0.0]
    return [
        claim("fig11.bursts_at_join", len(near), ">=", 1),
        claim("fig11.burst_min_duration_ns",
              min((b.duration_ns for b in near), default=0), ">", 0),
        claim("fig11.burst_min_peak_occupancy",
              min((b.peak_occupancy for b in near), default=0.0), ">", 0.5),
        claim("fig11.higher_loss_spike_pct", spikes[0], ">", 0.15),
        claim("fig11.lower_loss_spike_pct", spikes[1], ">", 0.05),
        claim("fig11.slowest_recovery_s",
              max(result.recovery_times_s(), default=0.0), ">", 5.0),
    ]


# §5.4.1: every path at the reference 100 ms RTT, a BDP/4 buffer.
PAPER_CONFIG = ScenarioConfig(rtts_ms=(100.0, 100.0, 100.0),
                              buffer_bdp_fraction=0.25)


def run_fig11(
    duration_s: float = 50.0,
    join_s: float = 18.0,
    inject_burst_buffers: float = 0.0,
    config: ScenarioConfig = PAPER_CONFIG,
) -> Fig11Result:
    """Two settled transfers + one joining at ``join_s`` over a BDP/4
    buffer, all paths at the reference 100 ms RTT (§5.4.1)."""
    scenario = Scenario(config)
    handles = [
        scenario.add_flow(0, start_s=0.0, duration_s=duration_s),
        scenario.add_flow(1, start_s=1.0, duration_s=duration_s),
        scenario.add_flow(2, start_s=join_s, duration_s=duration_s - join_s),
    ]
    if inject_burst_buffers > 0:
        buffer_bytes = scenario.config.topology_config().buffer_bytes()
        scenario.inject_burst(join_s, nbytes=int(inject_burst_buffers * buffer_bytes))
    scenario.run(duration_s + 2.0)

    result = Fig11Result(
        scenario=scenario,
        handles=handles,
        burst_s=join_s,
        duration_s=duration_s,
        microbursts=list(scenario.control_plane.microbursts),
    )
    for handle in handles:
        label = scenario.label(handle)
        result.throughput_mbps[label] = scenario.throughput_series_mbps(handle)
        result.loss_pct[label] = scenario.monitor_series(handle, MetricKind.PACKET_LOSS)
        result.queue_occupancy_pct[label] = scenario.monitor_series(
            handle, MetricKind.QUEUE_OCCUPANCY
        )
    return result
