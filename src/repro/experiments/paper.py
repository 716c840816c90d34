"""The paper's evaluation (§5) as one table: every result the
reproduction regenerates, paired with the claims the paper makes about
it (:mod:`repro.experiments.claims`) and with its printed form.

A run called with no arguments is at full scale: the 100 Mb/s operating
point with the paper's ratios (DESIGN.md §2), which
``benchmarks/test_paper_claims.py`` prints and asserts.  Called with its
``reduced`` keyword arguments it is at reduced scale, which
``tests/experiments/`` asserts the same claims at.  ``repro-experiments
<name>`` runs the one, ``repro-experiments <name> --quick`` the other.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple

from repro.experiments import (
    ablations,
    fig9_perflow,
    fig10_fairness,
    fig11_microburst,
    fig12_limiter,
    fig13_iat,
    fig14_recovery,
    table1_comparison,
)
from repro.experiments.claims import Claim, claims_table
from repro.experiments.common import ScenarioConfig


class Experiment(NamedTuple):
    run: Callable[..., Any]
    claims: Callable[[Any], List[Claim]]
    # The result's panels or table, ending with its claims table.
    render: Callable[[Any], str]
    # ``run``'s keyword arguments at reduced scale.
    reduced: Dict[str, Any]


def _ablation(run, table, claims_of, reduced) -> Experiment:
    return Experiment(run, claims_of, lambda result: "\n".join(
        [table(result), claims_table(claims_of(result))]), reduced)


SMALL = ScenarioConfig(bottleneck_mbps=40.0, rtts_ms=(20.0, 30.0, 40.0),
                       reference_rtt_ms=40.0)
# Fig. 9 (and Fig. 10, drawn from its run) keep the paper's 50/75/100
# ms paths: with SMALL's 20 and 30 ms the pre-join pair does not reach
# parity in 8 s.
SMALL_PAPER_RTTS = ScenarioConfig(bottleneck_mbps=40.0)
SMALL_100 = ScenarioConfig(bottleneck_mbps=40.0, rtts_ms=(40.0, 40.0, 40.0),
                           reference_rtt_ms=40.0, buffer_bdp_fraction=0.25)
MMWAVE = dict(link_rate_mbps=500.0, stream_rate_mbps=200.0, duration_s=10.0)
FIG9_REDUCED = dict(duration_s=20.0, join_s=8.0, config=SMALL_PAPER_RTTS)


PAPER: Dict[str, Experiment] = {
    "table1": Experiment(table1_comparison.run_table1,
                         table1_comparison.claims,
                         table1_comparison.Table1Result.summary,
                         dict(duration_s=25.0, test_repeat_s=12.0,
                              test_duration_s=2.0, config=SMALL)),
    "fig9": Experiment(fig9_perflow.run_fig9, fig9_perflow.claims,
                       fig9_perflow.Fig9Result.summary, FIG9_REDUCED),
    "fig10": Experiment(fig10_fairness.run_fig10, fig10_fairness.claims,
                        fig10_fairness.Fig10Result.summary, FIG9_REDUCED),
    "fig11": Experiment(fig11_microburst.run_fig11, fig11_microburst.claims,
                        fig11_microburst.Fig11Result.summary,
                        dict(duration_s=24.0, join_s=10.0, config=SMALL_100)),
    "fig12": Experiment(fig12_limiter.run_fig12, fig12_limiter.claims,
                        fig12_limiter.Fig12Result.summary,
                        dict(duration_s=25.0, config=SMALL)),
    "fig13": Experiment(fig13_iat.run_fig13, fig13_iat.claims,
                        fig13_iat.Fig13Result.summary,
                        dict(blockage_start_s=6.0, blockage_duration_s=1.5,
                             **MMWAVE)),
    "fig14": Experiment(fig14_recovery.run_fig14, fig14_recovery.claims,
                        fig14_recovery.Fig14Result.summary,
                        dict(blockage_start_s=5.0, blockage_duration_s=2.0,
                             **MMWAVE)),
    "ablation_cms": _ablation(ablations.ablate_cms, ablations.cms_table,
                              ablations.cms_claims,
                              dict(widths=(128, 512), depths=(1, 3),
                                   n_flows=800)),
    "ablation_eack": _ablation(ablations.ablate_eack_size,
                               ablations.eack_table, ablations.eack_claims,
                               dict(sizes=(128, 16384), duration_s=5.0)),
    "ablation_sampling": _ablation(
        ablations.ablate_sampling_vs_dataplane,
        ablations.SamplingAblationResult.table, ablations.sampling_claims,
        dict(duration_s=12.0, n_bursts=3)),
    "ablation_boost": _ablation(ablations.ablate_alert_boost,
                                ablations.BoostAblationResult.table,
                                ablations.boost_claims,
                                dict(duration_s=10.0, congest_s=4.0)),
    "ablation_int": _ablation(ablations.ablate_int_overhead,
                              ablations.IntComparisonResult.table,
                              ablations.int_claims, dict(duration_s=4.0)),
    "ablation_cca": _ablation(ablations.ablate_cca_signatures,
                              ablations.cca_table, ablations.cca_claims,
                              dict(duration_s=8.0, bottleneck_mbps=30.0)),
}
