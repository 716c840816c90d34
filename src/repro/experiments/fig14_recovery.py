"""Fig. 14 / §5.4.3 — recovery speed of the P4 (IAT-based),
throughput-based and RSSI-based blockage systems.

Paper shape: under a 2-second blockage, the P4 system detects and reacts
before the throughput (as seen by a polling controller) even degrades;
the throughput-based system follows; the RSSI-based system — which must
average noisy signal readings — is slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.claims import Claim, claim, claims_table, ratio
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.units import NS_PER_S, mbps, seconds
from repro.mmwave.channel import BlockageSchedule, MmWaveLink
from repro.mmwave.detectors import IatDetector, RssiDetector, ThroughputDetector
from repro.mmwave.handover import HandoverController
from repro.mmwave.traffic import CbrSender, ThroughputMeter
from repro.viz import timeseries_panel


@dataclass
class DetectorRun:
    system: str
    throughput_mbps: List[Tuple[float, float]]
    detection_latency_ms: Optional[float]     # blockage start -> trigger
    recovery_latency_ms: Optional[float]      # blockage start -> rate restored
    bytes_lost_window: float                  # Mb not delivered during blockage


@dataclass
class Fig14Result:
    blockage_start_s: float
    blockage_duration_s: float
    runs: Dict[str, DetectorRun]
    stream_rate_mbps: float

    def summary(self) -> str:
        lines = [timeseries_panel(
            {name: run.throughput_mbps for name, run in self.runs.items()},
            f"Throughput under a {self.blockage_duration_s:.0f}s blockage "
            f"at t={self.blockage_start_s:.0f}s", unit="Mbps",
        )]
        for name, run in self.runs.items():
            det = f"{run.detection_latency_ms:.1f}ms" if run.detection_latency_ms is not None else "never"
            rec = f"{run.recovery_latency_ms:.1f}ms" if run.recovery_latency_ms is not None else "never"
            lines.append(
                f"  {name:>10}: detected {det:>10}  recovered {rec:>10}  "
                f"undelivered during blockage {run.bytes_lost_window:.1f} Mb"
            )
        lines.append(claims_table(claims(self)))
        return "\n".join(lines)


def claims(result: Fig14Result) -> List[Claim]:
    p4, thr, rssi = (result.runs[name] for name in ("p4-iat", "throughput", "rssi"))

    def latency(run: DetectorRun) -> float:
        ms = run.detection_latency_ms
        return math.nan if ms is None else ms

    start = result.blockage_start_s
    during = [v for t, v in p4.throughput_mbps
              if start + 0.2 <= t <= start + result.blockage_duration_s]
    return [
        claim("fig14.p4_detection_ms", latency(p4), "<", 50.0),
        claim("fig14.throughput_over_p4_latency",
              ratio(latency(thr), latency(p4)), ">", 5.0),
        claim("fig14.rssi_over_throughput_latency",
              ratio(latency(rssi), latency(thr)), ">", 1.5),
        claim("fig14.throughput_minus_p4_lost_mb",
              thr.bytes_lost_window - p4.bytes_lost_window, ">", 0.0),
        claim("fig14.rssi_minus_throughput_lost_mb",
              rssi.bytes_lost_window - thr.bytes_lost_window, ">", 0.0),
        # The headline: with the P4 system the stream barely dips.
        claim("fig14.p4_min_rate_during_blockage",
              min(during, default=0.0) / result.stream_rate_mbps, ">", 0.7),
    ]


def _run_system(
    system: str,
    blockage_start_s: float,
    blockage_duration_s: float,
    duration_s: float,
    link_rate_bps: int,
    stream_rate_bps: int,
    seed: int,
) -> DetectorRun:
    sim = Simulator()
    tx = Host(sim, "mm-tx", "10.9.0.1")
    rx = Host(sim, "mm-rx", "10.9.0.2")
    link = MmWaveLink(sim, tx, rx, rate_bps=link_rate_bps, seed=seed)
    link.schedule(BlockageSchedule([
        (seconds(blockage_start_s), seconds(blockage_duration_s))
    ]))
    controller = HandoverController(sim, link)
    meter = ThroughputMeter(sim, rx)
    CbrSender(sim, tx, rx.ip, rate_bps=stream_rate_bps, payload_len=8948,
              stop_ns=seconds(duration_s))

    if system == "p4-iat":
        detector = IatDetector(sim, rx, controller)
    elif system == "throughput":
        detector = ThroughputDetector(
            sim, rx, controller, expected_rate_bps=stream_rate_bps
        )
    elif system == "rssi":
        detector = RssiDetector(sim, link, controller)
    else:
        raise ValueError(f"unknown system {system!r}")

    sim.run_until(seconds(duration_s))

    start_ns = seconds(blockage_start_s)
    detection_ms: Optional[float] = None
    if detector.triggered_at_ns is not None:
        detection_ms = (detector.triggered_at_ns - start_ns) / 1e6
    recovery_ms: Optional[float] = None
    if controller.records:
        recovery_ms = (controller.records[0].completed_ns - start_ns) / 1e6

    # Megabits NOT delivered during the blockage window relative to the
    # nominal stream rate (the area above the throughput curve).
    window_s = blockage_duration_s
    delivered = sum(
        bps * (meter.interval_ns / NS_PER_S)
        for t_ns, bps in meter.intervals
        if start_ns <= t_ns <= start_ns + seconds(window_s)
    )
    nominal = stream_rate_bps * window_s
    lost_mb = max(0.0, (nominal - delivered) / 1e6)

    return DetectorRun(
        system=system,
        throughput_mbps=meter.throughput_series_mbps(),
        detection_latency_ms=detection_ms,
        recovery_latency_ms=recovery_ms,
        bytes_lost_window=lost_mb,
    )


def run_fig14(
    duration_s: float = 12.0,
    blockage_start_s: float = 7.0,
    blockage_duration_s: float = 2.0,
    link_rate_mbps: float = 1000.0,
    stream_rate_mbps: float = 500.0,
    seed: int = 3,
) -> Fig14Result:
    runs = {
        system: _run_system(
            system, blockage_start_s, blockage_duration_s, duration_s,
            mbps(link_rate_mbps), mbps(stream_rate_mbps), seed,
        )
        for system in ("p4-iat", "throughput", "rssi")
    }
    return Fig14Result(
        blockage_start_s=blockage_start_s,
        blockage_duration_s=blockage_duration_s,
        runs=runs,
        stream_rate_mbps=stream_rate_mbps,
    )
