"""Property-based guarantees of the count-min sketch.

Complements tests/p4/test_sketch.py with the two analytical guarantees
the validation subsystem's tolerances lean on (docs/validation.md):
never under-count, and the eps*N overestimation bound at its documented
tail probability.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings, strategies as st

from repro.p4.sketch import CountMinSketch

_KEYS = st.binary(min_size=1, max_size=12)


@given(st.lists(st.tuples(_KEYS, st.integers(1, 10_000)),
                min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_property_estimate_never_below_true_count(updates):
    """estimate >= true count, for every key, plain and conservative."""
    for conservative in (False, True):
        cms = CountMinSketch(width=64, depth=3, conservative=conservative)
        true = {}
        for key, amount in updates:
            cms.update(key, amount)
            true[key] = true.get(key, 0) + amount
        for key, count in true.items():
            assert cms.query(key) >= count


@given(st.lists(st.tuples(_KEYS, st.integers(1, 1000)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_property_estimate_bounded_by_total_mass(updates):
    """The trivial upper bound: no estimate can exceed total inserted
    mass (every colliding update contributes at most once per row)."""
    cms = CountMinSketch(width=32, depth=2)
    total = 0
    for key, amount in updates:
        cms.update(key, amount)
        total += amount
    for key, _ in updates:
        assert cms.query(key) <= total


def test_eps_n_error_bound_holds_at_tail_probability():
    """P[estimate > true + (e/width)*N] <= exp(-depth) per query.  Over a
    fixed seeded workload the violation fraction must stay within a 3x
    fudge of that tail probability (it is typically far below)."""
    width, depth = 128, 3
    cms = CountMinSketch(width=width, depth=depth)
    rng = random.Random(20230817)
    true = {}
    for _ in range(4000):
        key = rng.randrange(600).to_bytes(4, "big")
        amount = rng.randint(1, 50)
        cms.update(key, amount)
        true[key] = true.get(key, 0) + amount

    n_total = sum(true.values())
    eps_n = math.e / width * n_total
    violations = sum(
        1 for key, count in true.items() if cms.query(key) > count + eps_n
    )
    delta = math.exp(-depth)
    assert violations / len(true) <= 3 * delta


def test_snapshot_is_an_independent_copy():
    cms = CountMinSketch(width=16, depth=2)
    cms.update(b"x", 5)
    snap = cms.snapshot()
    assert snap.shape == (2, 16)
    assert int(snap.sum()) == 2 * 5
    snap[:] = 0
    assert cms.query(b"x") == 5  # mutating the snapshot is side-effect free


def test_row_sums_equal_total_mass_in_plain_mode():
    cms = CountMinSketch(width=8, depth=4)
    rng = random.Random(7)
    total = 0
    for _ in range(200):
        amount = rng.randint(1, 9)
        cms.update(rng.randrange(40).to_bytes(2, "big"), amount)
        total += amount
    snap = cms.snapshot()
    for row in range(4):
        assert int(snap[row].sum()) == total
