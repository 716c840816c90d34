"""Unit tests for the read-flip histogram register extern (and, where a
test is about the bank pair alone, the time-window extern beside it)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.p4.histogram import (
    HistogramRegister,
    bin_quantile,
    bin_series,
    log_edges,
)
from repro.p4.time_windows import F_PKTS, TimeWindowRegister


# -- bin-edge construction -----------------------------------------------------

def test_log_edges_constant_ratio():
    edges = log_edges(1_000, 1_000_000, 3)
    # ratio = 1000^(1/3) = 10 exactly
    assert edges == [10_000, 100_000, 1_000_000]


def test_log_edges_cover_endpoints():
    edges = log_edges(500_000, 2_000_000_000, 48)
    assert edges[-1] == 2_000_000_000
    assert edges[0] > 500_000
    assert all(b > a for a, b in zip(edges, edges[1:]))


def test_edges_dedup_collapsed_low_bins():
    # 1..4 over 16 log bins: integer rounding collapses the low end, the
    # result must still be strictly increasing.
    edges = log_edges(1, 4, 16)
    assert all(b > a for a, b in zip(edges, edges[1:]))


def test_log_edges_validation():
    with pytest.raises(ValueError):
        log_edges(0, 5, 4)
    with pytest.raises(ValueError):
        log_edges(1, 5, 1)


# -- the extern ----------------------------------------------------------------

def _hist(size=4, edges=(10, 100, 1000)):
    return HistogramRegister("h", size, edges)


def test_observe_bins_by_upper_bound():
    h = _hist()
    for v in (5, 10, 11, 100, 500, 5000):
        h.observe(0, v)
    # bisect_left: <=10 | <=100 | <=1000 | overflow
    assert list(h.snapshot()[0]) == [2, 2, 1, 1]


def test_extract_returns_window_and_clears():
    h = _hist()
    h.observe(1, 50)
    h.observe(1, 50)
    w1 = h.extract()
    assert w1[1].sum() == 2
    # Bank flipped: new observations land in the other bank.
    h.observe(1, 5000)
    w2 = h.extract()
    assert list(w2[1]) == [0, 0, 0, 1]
    assert h.snapshot().sum() == 0
    assert h.flips == 2


# What both bank-pair externs share: (factory, record one sample,
# samples held in a bank-shaped array).
_BANK_PAIRS = [
    pytest.param(_hist, lambda h: h.observe(0, 50),
                 lambda bank: int(bank.sum()), id="histogram"),
    pytest.param(lambda: TimeWindowRegister("tw", 1, 8, 1_000),
                 lambda tw: tw.observe(10, 7, 100, 0),
                 lambda bank: int(bank[0, :, F_PKTS].sum()), id="time_window"),
]


def _held(pair, held):
    return held(pair.bank(0)) + held(pair.bank(1))


@pytest.mark.parametrize("make, observe, held", _BANK_PAIRS)
def test_writes_straddling_a_flip_are_never_lost(make, observe, held):
    pair = make()
    observe(pair)
    pair.flip()                   # sample now sits in the quiescent bank
    observe(pair)                 # lands in the new active bank
    assert _held(pair, held) == 2
    assert held(pair.extract()) == 1   # flips back: first sample's bank
    assert held(pair.extract()) == 1   # and the second's
    assert _held(pair, held) == 0


@pytest.mark.parametrize("make, observe, held", _BANK_PAIRS)
def test_clear_and_load_banks(make, observe, held):
    src = make()
    observe(src)
    src.flip()
    observe(src)
    dst = make()
    dst.load_banks(src.bank(0), src.bank(1), src.active)
    assert dst.active == 1 and _held(dst, held) == 2
    assert np.array_equal(dst.extract(), src.extract())
    with pytest.raises(ValueError):
        dst.load_banks(src.bank(0)[..., :1], src.bank(1), 0)
    with pytest.raises(ValueError):
        dst.load_banks(src.bank(0), src.bank(1), 2)
    src.clear()
    assert _held(src, held) == 0


def test_snapshot_sums_both_banks():
    h = _hist()
    h.observe(2, 5)
    h.flip()
    h.observe(2, 5)
    assert h.snapshot()[2][0] == 2
    assert h.bank(0)[2][0] + h.bank(1)[2][0] == 2


def test_constructor_validation():
    with pytest.raises(ValueError):
        HistogramRegister("h", 0, (10, 100))
    with pytest.raises(ValueError):
        HistogramRegister("h", 4, (10,))
    with pytest.raises(ValueError):
        HistogramRegister("h", 4, (10, 10, 100))


def test_ops_counter_tracks_observes():
    h = _hist()
    for i in range(7):
        h.observe(i % 4, 50)
    assert h.ops == 7


# -- helpers -------------------------------------------------------------------

def test_bin_series_shape_matches_telemetry_dump():
    series = bin_series((10, 100), (1, 2, 3))
    assert series == {"buckets": [10, 100], "counts": [1, 2, 3],
                      "count": 6, "max": None}


def test_bin_quantile_upper_bound_semantics():
    assert bin_quantile((10, 100, 1000), (0, 10, 0, 0), 0.5) == 100
    assert bin_quantile((10, 100, 1000), (0, 0, 0, 5), 0.5) == 1000


# -- runtime registration ------------------------------------------------------

def test_program_registration_and_runtime_access():
    from repro.p4.runtime import P4Program, P4RuntimeClient

    prog = P4Program("test")
    h = prog.histogram(_hist())
    with pytest.raises(ValueError):
        prog.histogram(_hist())  # duplicate name
    client = P4RuntimeClient(prog)
    h.observe(0, 50)
    assert client.extract_histogram("h")[0].sum() == 1
    assert client.register_reads == 1
    with pytest.raises(KeyError, match="no histogram"):
        client.extract_histogram("nope")


def test_state_snapshot_includes_banks_and_phase():
    from repro.p4.runtime import P4Program

    prog = P4Program("test")
    h = prog.histogram(_hist())
    h.observe(0, 50)
    d0 = prog.state_digest()
    h.flip()
    # Same counts, different flip phase: the digest must distinguish.
    assert prog.state_digest() != d0
    state = prog.state_snapshot()
    assert "histogram/h/bank0" in state
    assert "histogram/h/bank1" in state
    assert state["histogram/h/active"][0] == 1
