"""The paper's evaluation at full scale: every table, figure and ablation
of ``repro.experiments.paper.PAPER`` regenerated at its default
(full-scale) operating point, its panels or table printed (ending with
its claims table) and its claims asserted.  tests/experiments/ asserts
the same claims at reduced scale.

    pytest benchmarks/test_paper_claims.py -q -s --benchmark-disable
"""

import pytest

from benchmarks.conftest import banner
from repro.experiments.claims import assert_claims
from repro.experiments.paper import PAPER


@pytest.mark.parametrize("name", PAPER)
def test_paper_claims_at_full_scale(name, once):
    experiment = PAPER[name]
    result = once(experiment.run)
    banner(f"{name} — at full scale")
    print(experiment.render(result))
    assert_claims(experiment.claims(result))
