"""The paper's evaluation (§5) as one table: every result the
reproduction regenerates, paired with the claims the paper makes about
it (:mod:`repro.experiments.claims`) and with its printed form.

A run called with no arguments is at full scale: the 100 Mb/s operating
point with the paper's ratios (DESIGN.md §2), which
``benchmarks/test_paper_claims.py`` prints and asserts.
``tests/experiments/`` passes smaller keyword arguments and asserts the
same claims.
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


class Experiment(NamedTuple):
    run: Callable[..., Any]
    claims: Callable[[Any], List[Claim]]
    # The result's panels or table, ending with its claims table.
    render: Callable[[Any], str]


def _ablation(run, table, claims_of) -> Experiment:
    return Experiment(run, claims_of, lambda result: "\n".join(
        [table(result), claims_table(claims_of(result))]))


PAPER: Dict[str, Experiment] = {
    "table1": Experiment(table1_comparison.run_table1,
                         table1_comparison.claims,
                         table1_comparison.Table1Result.summary),
    "fig9": Experiment(fig9_perflow.run_fig9, fig9_perflow.claims,
                       fig9_perflow.Fig9Result.summary),
    "fig10": Experiment(fig10_fairness.run_fig10, fig10_fairness.claims,
                        fig10_fairness.Fig10Result.summary),
    "fig11": Experiment(fig11_microburst.run_fig11, fig11_microburst.claims,
                        fig11_microburst.Fig11Result.summary),
    "fig12": Experiment(fig12_limiter.run_fig12, fig12_limiter.claims,
                        fig12_limiter.Fig12Result.summary),
    "fig13": Experiment(fig13_iat.run_fig13, fig13_iat.claims,
                        fig13_iat.Fig13Result.summary),
    "fig14": Experiment(fig14_recovery.run_fig14, fig14_recovery.claims,
                        fig14_recovery.Fig14Result.summary),
    "ablation_cms": _ablation(ablations.ablate_cms, ablations.cms_table,
                              ablations.cms_claims),
    "ablation_eack": _ablation(ablations.ablate_eack_size,
                               ablations.eack_table, ablations.eack_claims),
    "ablation_sampling": _ablation(
        ablations.ablate_sampling_vs_dataplane,
        ablations.SamplingAblationResult.table, ablations.sampling_claims),
    "ablation_boost": _ablation(ablations.ablate_alert_boost,
                                ablations.BoostAblationResult.table,
                                ablations.boost_claims),
    "ablation_int": _ablation(ablations.ablate_int_overhead,
                              ablations.IntComparisonResult.table,
                              ablations.int_claims),
    "ablation_cca": _ablation(ablations.ablate_cca_signatures,
                              ablations.cca_table, ablations.cca_claims),
}
