"""Fig. 9 — per-flow measurements as a third transfer joins two existing
ones (§5.2).

The paper's observations, reproduced here at the scaled rate:

1. before the join, the two existing flows converge to approximate
   parity (≈ half the bottleneck each — the paper's ≈5 Gbps per flow);
2. when the third flow joins, its slow-start burst fills the queue — a
   surge in queue occupancy;
3. the burst overruns the buffer — a packet-loss spike around the join;
4. afterwards all three flows converge toward a new fair share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.core.config import MetricKind
from repro.experiments.claims import Claim, claim, claims_table, ratio
from repro.experiments.common import FlowHandle, Scenario, ScenarioConfig, mean, window
from repro.viz import timeseries_panel


@dataclass
class Fig9Result:
    scenario: Scenario
    handles: List[FlowHandle]
    join_s: float
    duration_s: float

    # (label -> series) per metric, monitor-reported.
    throughput_mbps: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    rtt_ms: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    queue_occupancy_pct: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    loss_pct: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def pre_join_throughputs(self) -> List[float]:
        """Mean per-flow throughput over the settled window before the
        join (for the parity check)."""
        lo, hi = self.join_s * 0.5, self.join_s
        return [
            mean(window(series, lo, hi))
            for label, series in self.throughput_mbps.items()
            if window(series, lo, hi)
        ]

    def post_join_throughputs(self) -> List[float]:
        lo, hi = self.duration_s * 0.75, self.duration_s
        return [
            mean(window(series, lo, hi))
            for series in self.throughput_mbps.values()
            if window(series, lo, hi)
        ]

    def join_loss_spike(self) -> float:
        """Max packet-loss percentage across flows around the join."""
        lo, hi = self.join_s, self.join_s + 5.0
        spikes = [max(window(s, lo, hi), default=0.0) for s in self.loss_pct.values()]
        return max(spikes, default=0.0)

    def join_queue_surge(self) -> float:
        lo, hi = self.join_s, self.join_s + 5.0
        return max(
            (max(window(s, lo, hi), default=0.0) for s in self.queue_occupancy_pct.values()),
            default=0.0,
        )

    def summary(self) -> str:
        parts = [
            timeseries_panel(self.throughput_mbps, "Per-flow throughput", unit="Mbps"),
            timeseries_panel(self.rtt_ms, "Per-flow RTT", unit="ms"),
            timeseries_panel(self.queue_occupancy_pct, "Queue occupancy", unit="%"),
            timeseries_panel(self.loss_pct, "Per-flow packet loss", unit="%"),
            f"pre-join fair shares (Mbps): "
            f"{[round(v, 1) for v in self.pre_join_throughputs()]}",
            f"post-join shares (Mbps): "
            f"{[round(v, 1) for v in self.post_join_throughputs()]}",
            f"loss spike at join: {self.join_loss_spike():.2f}%  "
            f"queue surge at join: {self.join_queue_surge():.1f}%",
            claims_table(claims(self)),
        ]
        return "\n".join(parts)


def claims(result: Fig9Result) -> List[Claim]:
    cfg = result.scenario.config
    link = cfg.bottleneck_mbps
    pre = result.pre_join_throughputs()
    post = result.post_join_throughputs()
    buffer_ms = cfg.buffer_bdp_fraction * cfg.reference_rtt_ms
    # RTT = base + queueing: never under the path's own base, and (median,
    # so loss-recovery spikes do not count) never far over base + a full
    # buffer.
    floor, ceiling = [], []
    for handle in result.handles:
        base = cfg.rtts_ms[handle.dst_index]
        settled = [v for t, v in result.rtt_ms[result.scenario.label(handle)]
                   if t > result.duration_s / 4]
        floor.append(min(settled, default=0.0) / base)
        ceiling.append(median(settled) / (base + buffer_ms) if settled
                       else math.inf)
    return [
        claim("fig9.prejoin_link_share", sum(pre) / link, ">", 0.7),
        claim("fig9.prejoin_parity",
              ratio(min(pre), sum(pre)) if len(pre) == 2 else math.nan,
              ">", 0.25),
        claim("fig9.join_queue_surge_pct", result.join_queue_surge(), ">", 80.0),
        claim("fig9.join_loss_spike_pct", result.join_loss_spike(), ">", 0.0),
        claim("fig9.postjoin_min_flow_share",
              min(post) / link if len(post) == 3 else math.nan, ">", 0.05),
        claim("fig9.postjoin_link_share", sum(post) / link, ">", 0.7),
        claim("fig9.rtt_min_over_base", min(floor), ">", 0.8),
        claim("fig9.rtt_median_over_base_plus_buffer", max(ceiling), "<", 1.25),
    ]


def run_fig9(
    duration_s: float = 40.0,
    join_s: float = 15.0,
    config: Optional[ScenarioConfig] = None,
) -> Fig9Result:
    """Two flows from t=0 (to DTN1/DTN2), a third (to DTN3) joining at
    ``join_s``; monitor reporting interval 1 s, as in §5.1."""
    scenario = Scenario(config or ScenarioConfig())
    handles = [
        scenario.add_flow(0, start_s=0.0, duration_s=duration_s),
        scenario.add_flow(1, start_s=0.0, duration_s=duration_s),
        scenario.add_flow(2, start_s=join_s, duration_s=duration_s - join_s),
    ]
    scenario.run(duration_s + 2.0)

    result = Fig9Result(
        scenario=scenario, handles=handles, join_s=join_s, duration_s=duration_s
    )
    for handle in handles:
        label = scenario.label(handle)
        result.throughput_mbps[label] = scenario.throughput_series_mbps(handle)
        result.rtt_ms[label] = scenario.monitor_series(handle, MetricKind.RTT)
        result.queue_occupancy_pct[label] = scenario.monitor_series(
            handle, MetricKind.QUEUE_OCCUPANCY
        )
        result.loss_pct[label] = scenario.monitor_series(handle, MetricKind.PACKET_LOSS)
    return result
