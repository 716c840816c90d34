"""Fig. 12 / §5.4.2 — is a connection limited by the network or by the
sender/receiver?

Paper setup (10 Gbps bottleneck): DTN1's path gets 0.01 % random loss
(network-limited, fluctuating throughput); DTN2's receiver shrinks its
TCP buffer (steady ≈250 Mbps, endpoint-limited); DTN3's sender caps its
rate at 500 Mbps (steady, endpoint-limited).

Scaled version: the same *fractions* of the bottleneck — receiver window
sized for 2.5 % of the link, sender paced at 5 % — and a loss rate chosen
to preserve losses-per-RTT at the scaled packet rate (the paper's 0.01 %
at 10 Gbps/1500 B ≈ several losses per RTT; see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MetricKind
from repro.core.reports import LimiterVerdict
from repro.experiments.claims import Claim, claim, claims_table, ratio
from repro.experiments.common import FlowHandle, Scenario, ScenarioConfig, mean, window
from repro.netsim.units import mbps
from repro.viz import timeseries_panel


@dataclass
class Fig12Result:
    scenario: Scenario
    handles: List[FlowHandle]
    duration_s: float
    throughput_mbps: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    verdicts: Dict[str, LimiterVerdict] = field(default_factory=dict)
    expectations: Dict[str, LimiterVerdict] = field(default_factory=dict)
    receiver_cap_mbps: float = 0.0      # the rates flows 2 and 3 are capped at
    sender_cap_mbps: float = 0.0

    def settled_throughputs(self) -> Dict[str, float]:
        lo, hi = self.duration_s * 0.4, self.duration_s
        return {
            label: mean(window(series, lo, hi))
            for label, series in self.throughput_mbps.items()
        }

    def throughput_cv(self, label: str) -> float:
        lo, hi = self.duration_s * 0.4, self.duration_s
        vals = window(self.throughput_mbps[label], lo, hi)
        if len(vals) < 2:
            return 0.0
        m = sum(vals) / len(vals)
        if m == 0:
            return 0.0
        var = sum((v - m) ** 2 for v in vals) / len(vals)
        return var ** 0.5 / m

    def summary(self) -> str:
        lines = [timeseries_panel(self.throughput_mbps, "Per-flow throughput", unit="Mbps")]
        settled = self.settled_throughputs()
        for label in self.throughput_mbps:
            lines.append(
                f"  {label}: verdict={self.verdicts.get(label, LimiterVerdict.UNKNOWN).value:>8} "
                f"(expected {self.expectations[label].value:>8})  "
                f"settled {settled[label]:.1f} Mbps  cv {self.throughput_cv(label):.2f}"
            )
        lines.append(claims_table(claims(self)))
        return "\n".join(lines)


def claims(result: Fig12Result) -> List[Claim]:
    network, receiver, sender = result.throughput_mbps
    settled = result.settled_throughputs()
    link = result.scenario.config.bottleneck_mbps
    return [
        claim("fig12.correct_verdicts",
              sum(result.verdicts.get(label) is expected
                  for label, expected in result.expectations.items()),
              "==", 3),
        # EXPERIMENTS.md, known deviation 3: the receiver lands under its
        # nominal cap, so its band is wider than the sender's.
        claim("fig12.receiver_rate_over_cap",
              settled[receiver] / result.receiver_cap_mbps, "in", (0.6, 1.4)),
        claim("fig12.sender_rate_over_cap",
              settled[sender] / result.sender_cap_mbps, "in", (0.75, 1.25)),
        claim("fig12.receiver_cv", result.throughput_cv(receiver), "<", 0.1),
        claim("fig12.sender_cv", result.throughput_cv(sender), "<", 0.1),
        claim("fig12.network_over_sender_cv",
              ratio(result.throughput_cv(network), result.throughput_cv(sender)),
              ">", 2.0),
        claim("fig12.network_over_sender_rate",
              ratio(settled[network], settled[sender]), ">", 1.0),
        claim("fig12.network_link_share", settled[network] / link, "<", 0.95),
    ]


def run_fig12(
    duration_s: float = 40.0,
    loss_rate: Optional[float] = None,
    receiver_fraction: float = 0.025,   # paper: 250 Mbps of 10 Gbps
    sender_fraction: float = 0.05,      # paper: 500 Mbps of 10 Gbps
    loss_target_fraction: float = 0.35,
    config: Optional[ScenarioConfig] = None,
) -> Fig12Result:
    cfg = config or ScenarioConfig()
    scenario = Scenario(cfg)
    bottleneck_bps = mbps(cfg.bottleneck_mbps)

    # Flow 1: the network is the bottleneck (random loss on DTN1's path).
    # As in the paper's setup, the loss caps this flow *below* the link
    # rate, so the link never saturates and the endpoint-limited flows see
    # no congestion drops.  When not given explicitly, the rate is derived
    # from the Mathis relation  thr ≈ 1.2*MSS/(RTT*sqrt(p))  to target
    # ``loss_target_fraction`` of the bottleneck (this reproduces the
    # paper's 0.01 % at its 1500 B / 10 Gbps operating point).
    if loss_rate is None:
        rtt_s = cfg.rtts_ms[0] / 1e3
        target = loss_target_fraction * bottleneck_bps
        loss_rate = min(0.05, max(1e-4, (1.2 * cfg.mss * 8 / (rtt_s * target)) ** 2))
    scenario.add_path_loss(0, loss_rate)
    f1 = scenario.add_flow(0, duration_s=duration_s)

    # Flow 2: the receiver is the bottleneck (small TCP buffer → rwnd cap).
    # rwnd = target_rate * RTT.
    rtt_s = cfg.rtts_ms[1] / 1e3
    rcv_buf = max(2048, int(receiver_fraction * bottleneck_bps * rtt_s / 8))
    f2 = scenario.add_flow(1, duration_s=duration_s, server_rcv_buf=rcv_buf)

    # Flow 3: the sender is the bottleneck (application pacing).
    f3 = scenario.add_flow(
        2, duration_s=duration_s,
        rate_mbps=sender_fraction * cfg.bottleneck_mbps,
    )

    scenario.run(duration_s + 2.0)

    handles = [f1, f2, f3]
    result = Fig12Result(
        scenario=scenario, handles=handles, duration_s=duration_s,
        receiver_cap_mbps=receiver_fraction * cfg.bottleneck_mbps,
        sender_cap_mbps=sender_fraction * cfg.bottleneck_mbps,
    )
    expected = [
        LimiterVerdict.NETWORK_LIMITED,
        LimiterVerdict.RECEIVER_LIMITED,
        LimiterVerdict.SENDER_LIMITED,
    ]
    for handle, exp in zip(handles, expected):
        label = scenario.label(handle)
        result.throughput_mbps[label] = scenario.throughput_series_mbps(handle)
        result.expectations[label] = exp
        tracked = scenario.monitored_flow(handle)
        if tracked is not None:
            result.verdicts[label] = tracked.verdict
    return result
