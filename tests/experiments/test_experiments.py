"""The paper's claims at reduced scale: every experiment of
``repro.experiments.paper.PAPER`` run with its ``reduced`` keyword
arguments, smaller than its full-scale default
(benchmarks/test_paper_claims.py), the same claims asserted.  No
threshold lives here; EXPERIMENTS.md must cite exactly these claims."""

import re
from pathlib import Path

import pytest

from repro.experiments.claims import assert_claims
from repro.experiments.fig10_fairness import run_fig10
from repro.experiments.paper import PAPER


@pytest.fixture(scope="module")
def reduced():
    """``name -> result`` of one reduced-scale run each; Fig. 10 is
    aggregated from the Fig. 9 run, as the paper draws both from one."""
    cache = {}

    def result(name):
        if name not in cache:
            cache[name] = (run_fig10(fig9=result("fig9")) if name == "fig10"
                           else PAPER[name].run(**PAPER[name].reduced))
        return cache[name]

    return result


def check(reduced, name, *rendered):
    """Assert ``name``'s claims and that its rendering shows
    ``rendered``; return the result."""
    result = reduced(name)
    assert_claims(PAPER[name].claims(result))
    text = PAPER[name].render(result)
    for part in rendered + ("claim",):
        assert part in text
    return result


def test_table1_claims(reduced):
    r = check(reduced, "table1", "Regular perfSONAR")
    assert len(r.rows()) == 6


def test_fig9_claims(reduced):
    assert_claims(PAPER["fig9"].claims(reduced("fig9")))


def test_fig9_three_flows_tracked(reduced):
    fig9 = reduced("fig9")
    assert len(fig9.throughput_mbps) == 3
    assert all(series for series in fig9.throughput_mbps.values())


def test_fig9_summary_renders(reduced):
    check(reduced, "fig9", "Per-flow throughput", "loss spike")


def test_fig10_shapes(reduced):
    check(reduced, "fig10", "fairness")


def test_fig11_microburst_and_collateral(reduced):
    check(reduced, "fig11", "microbursts detected")


def test_fig12_verdicts(reduced):
    check(reduced, "fig12", "verdict")


def test_fig13_iat_inflation(reduced):
    check(reduced, "fig13", "inflation")


def test_fig14_ordering(reduced):
    check(reduced, "fig14", "p4-iat")


def test_ablation_cms_geometry(reduced):
    check(reduced, "ablation_cms", "width")


def test_ablation_eack_size(reduced):
    check(reduced, "ablation_eack", "hit rate")


def test_ablation_sampling_vs_dataplane(reduced):
    check(reduced, "ablation_sampling", "data plane (per packet)")


def test_ablation_alert_boost(reduced):
    check(reduced, "ablation_boost", "alert boost")


def test_ablation_int_vs_tap(reduced):
    check(reduced, "ablation_int", "INT (related work)")


def test_ablation_cca_signatures_small(reduced):
    check(reduced, "ablation_cca", "CCA")


def test_experiments_md_cites_exactly_the_claims(reduced):
    """The measured numbers in EXPERIMENTS.md may age; its structure may
    not: one table row per claim, each naming it in its first cell."""
    # Fig. 10 is drawn from the Fig. 9 run, so it must be that run's scale.
    assert PAPER["fig10"].reduced == PAPER["fig9"].reduced
    names = [c.name for name in PAPER
             for c in PAPER[name].claims(reduced(name))]
    assert len(names) == len(set(names))
    text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
    cited = re.findall(r"^\| `([a-z0-9_.]+)` \|", text, re.MULTILINE)
    assert sorted(cited) == sorted(names)
