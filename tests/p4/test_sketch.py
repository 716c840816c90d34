"""Count-min sketch invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.packet import FiveTuple
from repro.p4.sketch import CountMinSketch


def test_single_key_exact():
    cms = CountMinSketch(width=64, depth=3)
    cms.update(b"flow-a", 100)
    cms.update(b"flow-a", 50)
    assert cms.query(b"flow-a") == 150


def test_unseen_key_estimate_zero_when_empty():
    cms = CountMinSketch(width=64, depth=3)
    assert cms.query(b"never") == 0


def test_update_returns_estimate():
    cms = CountMinSketch(width=64, depth=3)
    assert cms.update(b"k", 7) == 7


def test_negative_update_rejected():
    cms = CountMinSketch()
    with pytest.raises(ValueError):
        cms.update(b"k", -1)


def test_invalid_geometry():
    with pytest.raises(ValueError):
        CountMinSketch(width=0)
    with pytest.raises(ValueError):
        CountMinSketch(depth=0)


def test_clear():
    cms = CountMinSketch(width=32, depth=2)
    cms.update(b"a", 10)
    cms.clear()
    assert cms.query(b"a") == 0
    assert cms.snapshot().sum() == 0


def test_tuple_interface():
    cms = CountMinSketch(width=128, depth=3)
    ft = FiveTuple(1, 2, 3, 4)
    cms.update_tuple(ft, 42)
    assert cms.query_tuple(ft) == 42


def test_memory_cells():
    assert CountMinSketch(width=10, depth=4).memory_cells() == 40


def test_depth_reduces_error():
    """More rows -> smaller overestimate on a loaded sketch."""
    keys = [f"flow-{i}".encode() for i in range(2000)]
    errors = {}
    for depth in (1, 4):
        cms = CountMinSketch(width=128, depth=depth)
        for k in keys:
            cms.update(k, 1)
        errors[depth] = sum(cms.query(k) - 1 for k in keys)
    assert errors[4] < errors[1]


def test_conservative_update_never_worse():
    keys = [f"k{i}".encode() for i in range(1500)]
    plain = CountMinSketch(width=64, depth=3, conservative=False)
    cons = CountMinSketch(width=64, depth=3, conservative=True)
    for k in keys:
        plain.update(k, 2)
        cons.update(k, 2)
    for k in keys[:200]:
        assert cons.query(k) <= plain.query(k)


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.integers(1, 1000)),
                min_size=1, max_size=80))
@settings(max_examples=50)
def test_property_never_underestimates(updates):
    """The defining CMS guarantee: estimate >= true count."""
    cms = CountMinSketch(width=32, depth=3)
    truth = {}
    for key, amount in updates:
        truth[key] = truth.get(key, 0) + amount
        cms.update(key, amount)
    for key, count in truth.items():
        assert cms.query(key) >= count


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.integers(1, 100)),
                min_size=1, max_size=60))
@settings(max_examples=30)
def test_property_conservative_never_underestimates(updates):
    cms = CountMinSketch(width=16, depth=3, conservative=True)
    truth = {}
    for key, amount in updates:
        truth[key] = truth.get(key, 0) + amount
        cms.update(key, amount)
    for key, count in truth.items():
        assert cms.query(key) >= count


@given(st.binary(min_size=1, max_size=16), st.integers(1, 10**6))
def test_property_update_estimate_at_least_amount(key, amount):
    cms = CountMinSketch(width=64, depth=2)
    assert cms.update(key, amount) >= amount
