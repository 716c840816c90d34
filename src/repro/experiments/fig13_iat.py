"""Fig. 13 / §5.4.3 — packet inter-arrival times under mmWave LOS
blockage.

Paper shape: with no blockage the IAT stays flat at the packet spacing;
with a blockage at t=7 s the IAT jumps by multiple orders of magnitude
for its duration — the signal the P4 detector keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.claims import Claim, claim, claims_table, ratio
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.units import NS_PER_S, mbps, seconds
from repro.mmwave.channel import BlockageSchedule, MmWaveLink
from repro.mmwave.traffic import CbrSender, ThroughputMeter
from repro.viz import timeseries_panel


@dataclass
class Fig13Result:
    blockage_start_s: float
    blockage_duration_s: float
    iat_no_blockage_us: List[Tuple[float, float]]   # (t_s, IAT µs)
    iat_blockage_us: List[Tuple[float, float]]

    def baseline_iat_us(self) -> float:
        vals = [v for _, v in self.iat_no_blockage_us]
        return sum(vals) / len(vals) if vals else 0.0

    def peak_iat_during_blockage_us(self) -> float:
        lo = self.blockage_start_s
        hi = self.blockage_start_s + self.blockage_duration_s + 0.5
        vals = [v for t, v in self.iat_blockage_us if lo <= t <= hi]
        return max(vals) if vals else 0.0

    def inflation_factor(self) -> float:
        base = self.baseline_iat_us()
        return self.peak_iat_during_blockage_us() / base if base else 0.0

    def summary(self) -> str:
        return "\n".join([
            timeseries_panel(
                {"no blockage": self.iat_no_blockage_us,
                 "blockage@t=7s": self.iat_blockage_us},
                "Packet inter-arrival time", unit="µs",
            ),
            f"baseline IAT: {self.baseline_iat_us():.1f} µs; "
            f"peak during blockage: {self.peak_iat_during_blockage_us():.1f} µs; "
            f"inflation ×{self.inflation_factor():.0f}",
            claims_table(claims(self)),
        ])


def claims(result: Fig13Result) -> List[Claim]:
    base = result.baseline_iat_us()
    before = [v for t, v in result.iat_blockage_us
              if t < result.blockage_start_s - 0.5]
    return [
        claim("fig13.unblocked_max_over_mean_iat",
              ratio(max((v for _, v in result.iat_no_blockage_us), default=0.0),
                    base), "<", 3.0),
        claim("fig13.blockage_iat_inflation", result.inflation_factor(), ">", 20.0),
        claim("fig13.pre_blockage_iat_drift",
              abs(ratio(sum(before) / max(len(before), 1), base) - 1), "<", 0.05),
    ]


def _run_once(
    blockage: Optional[Tuple[float, float]],
    link_rate_bps: int,
    stream_rate_bps: int,
    duration_s: float,
    seed: int,
) -> List[Tuple[float, float]]:
    sim = Simulator()
    tx = Host(sim, "mm-tx", "10.9.0.1")
    rx = Host(sim, "mm-rx", "10.9.0.2")
    link = MmWaveLink(sim, tx, rx, rate_bps=link_rate_bps, seed=seed)
    if blockage is not None:
        start_s, dur_s = blockage
        link.schedule(BlockageSchedule([(seconds(start_s), seconds(dur_s))]))
    meter = ThroughputMeter(sim, rx)
    CbrSender(sim, tx, rx.ip, rate_bps=stream_rate_bps, payload_len=8948,
              stop_ns=seconds(duration_s))
    sim.run_until(seconds(duration_s))
    return [(t / NS_PER_S, iat / 1e3) for t, iat in meter.inter_arrival_times()]


def run_fig13(
    duration_s: float = 12.0,
    blockage_start_s: float = 7.0,
    blockage_duration_s: float = 2.0,
    link_rate_mbps: float = 1000.0,
    stream_rate_mbps: float = 500.0,
    seed: int = 3,
) -> Fig13Result:
    link_rate = mbps(link_rate_mbps)
    stream_rate = mbps(stream_rate_mbps)
    return Fig13Result(
        blockage_start_s=blockage_start_s,
        blockage_duration_s=blockage_duration_s,
        iat_no_blockage_us=_run_once(None, link_rate, stream_rate, duration_s, seed),
        iat_blockage_us=_run_once(
            (blockage_start_s, blockage_duration_s),
            link_rate, stream_rate, duration_s, seed,
        ),
    )
