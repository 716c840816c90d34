"""Fig. 10 — link utilisation and Jain's fairness index over the Fig. 9
interval (§5.3).

Paper shape: the link stays (nearly) fully utilised throughout, while
the fairness index departs from ≈1 for a stretch after the third flow
joins (the time the three flows need to converge) before recovering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.claims import Claim, claim, claims_table
from repro.experiments.common import ScenarioConfig, mean, window
from repro.experiments.fig9_perflow import Fig9Result, run_fig9
from repro.viz import timeseries_panel


@dataclass
class Fig10Result:
    fig9: Fig9Result
    utilization: List[Tuple[float, float]]
    fairness: List[Tuple[float, float]]
    active_flows: List[Tuple[float, int]]

    @property
    def join_s(self) -> float:
        return self.fig9.join_s

    def utilization_during(self, lo_s: float, hi_s: float) -> float:
        return mean(window(self.utilization, lo_s, hi_s))

    def min_fairness_after_join(self, horizon_s: float = 10.0) -> float:
        vals = window(self.fairness, self.join_s, self.join_s + horizon_s)
        return min(vals) if vals else 1.0

    def settled_fairness(self) -> float:
        d = self.fig9.duration_s
        return mean(window(self.fairness, 0.75 * d, d))

    def unfair_period_s(self, threshold: float = 0.9) -> float:
        """Length of the post-join stretch with fairness below
        ``threshold`` — the paper's '~20 seconds' observation."""
        start: Optional[float] = None
        last_bad: Optional[float] = None
        for t, v in self.fairness:
            if t < self.join_s:
                continue
            if v < threshold:
                if start is None:
                    start = t
                last_bad = t
        if start is None or last_bad is None:
            return 0.0
        return last_bad - start + 1.0  # inclusive of the last bad sample

    def summary(self) -> str:
        return "\n".join([
            timeseries_panel({"utilization": self.utilization}, "Link utilization"),
            timeseries_panel({"fairness": self.fairness}, "Jain's fairness index"),
            f"mean utilization (settled): "
            f"{self.utilization_during(self.join_s, self.fig9.duration_s):.2f}",
            f"fairness dip after join: {self.min_fairness_after_join():.2f}; "
            f"unfair period ≈ {self.unfair_period_s():.0f}s; "
            f"settled fairness: {self.settled_fairness():.2f}",
            claims_table(claims(self)),
        ])


def claims(result: Fig10Result) -> List[Claim]:
    join, end = result.join_s, result.fig9.duration_s
    dip = result.min_fairness_after_join()
    settled = result.settled_fairness()

    def most_active(lo_s: float, hi_s: float) -> int:
        return max((n for t, n in result.active_flows if lo_s < t < hi_s),
                   default=0)

    return [
        claim("fig10.utilization_before_join",
              result.utilization_during(join / 2, join), ">", 0.85),
        claim("fig10.utilization_after_join",
              result.utilization_during(join + 5.0, end), ">", 0.85),
        claim("fig10.fairness_dip_after_join", dip, "<", 0.9),
        claim("fig10.fairness_recovery", settled - dip, ">", 0.0),
        claim("fig10.settled_fairness", settled, ">", 0.75),
        claim("fig10.active_flows_before_join",
              most_active(join / 3, join - 1.0), "==", 2),
        claim("fig10.active_flows_after_join",
              most_active(join + 5.0, end - 5.0), "==", 3),
    ]


def run_fig10(
    duration_s: float = 40.0,
    join_s: float = 15.0,
    config: Optional[ScenarioConfig] = None,
    fig9: Optional[Fig9Result] = None,
) -> Fig10Result:
    """Aggregate metrics from the Fig. 9 run (reuses a supplied run so a
    harness can regenerate both figures from one simulation)."""
    result9 = fig9 or run_fig9(duration_s=duration_s, join_s=join_s, config=config)
    archiver = result9.scenario.archiver
    return Fig10Result(
        fig9=result9,
        utilization=archiver.series("p4_aggregate", value_field="link_utilization"),
        fairness=archiver.series("p4_aggregate", value_field="jain_fairness"),
        active_flows=archiver.series("p4_aggregate", value_field="active_flows"),
    )
