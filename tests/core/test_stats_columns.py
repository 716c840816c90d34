"""A tick computes its derived statistics on register columns: each
formula of ``core.stats`` on an int64 / float64 column is, element by
element, the Python arithmetic on ints and floats to the last bit, and
what reaches a document is a plain ``float``."""

import numpy as np
import pytest

from repro.core.stats import (int_sum, jain_fairness, jitter_step, link_utilization,
                              loss_pct, throughput_bps)


def _tick_columns(rng, n):
    """One tick's columns over ``n`` flows: byte deltas from idle (0)
    through ones whose ``delta * 8`` is at or past 2**53 (where a float
    product could round apart from Python's int one) or past 2**63
    (where an int64 one wraps), and negative ones
    (a shared slot cleared under a flow), packet deltas including a flow
    that saw no packet, loss deltas, and which flows the tick evicts."""
    deltas = rng.integers(0, 1 << 20, n)
    big = rng.random(n) < 0.3
    deltas[big] = rng.integers(1 << 50, np.iinfo(np.int64).max, big.sum())
    deltas[rng.random(n) < 0.2] = 0                           # idle
    deltas[rng.random(n) < 0.05] *= -1
    deltas[0], deltas[1] = (1 << 53) // 8 + 1, 0
    pkts = rng.integers(0, 50, n)
    pkts[2] = 0                                                # no packet
    losses = rng.integers(-2, 60, n)
    evicted = (deltas == 0) & (rng.random(n) < 0.5)
    return deltas, pkts, losses, ~evicted


@pytest.mark.parametrize("seed", range(8))
def test_a_tick_on_columns_is_the_python_arithmetic_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 3, 40, 700):
        deltas, pkts, losses, kept = _tick_columns(rng, max(n, 3))
        interval = int(rng.choice([1, 99_999_937, 100_000_000, 3 * 10**9]))
        capacity = int(rng.choice([10**6, 10**9, 10**10]))

        throughputs = throughput_bps(deltas, interval)
        assert throughputs.dtype == np.float64
        want = [d * 8 * 1e9 / interval for d in deltas.tolist()]
        assert [x.hex() for x in throughputs.tolist()] == [x.hex() for x in want]
        assert all(type(throughput_bps(d, interval)) is float for d in deltas.tolist()[:3])

        util = link_utilization(deltas, interval, capacity)
        assert type(util) is float
        assert util.hex() == min(8 * sum(deltas.tolist()) * 1e9 / (interval * capacity),
                                 1.5).hex()
        assert util.hex() == link_utilization(deltas.tolist(), interval, capacity).hex()

        # Fairness over the flows the tick keeps; a negative throughput
        # (a cleared slot) is refused alike on both paths.
        alive = throughputs[kept]
        if (alive < 0).any():
            with pytest.raises(ValueError):
                jain_fairness(alive)
            alive = np.abs(alive)
        fair = jain_fairness(alive)
        assert type(fair) is float
        assert fair.hex() == jain_fairness(alive.tolist()).hex()
        assert fair.hex() == jain_fairness(iter(alive.tolist())).hex()

        pct = loss_pct(losses, pkts)
        want = [min(100.0, 100.0 * lost / max(1, p))
                for lost, p in zip(losses.tolist(), pkts.tolist())]
        assert [x.hex() for x in pct.tolist()] == [x.hex() for x in want]
        assert [loss_pct(lost, p) for lost, p in zip(losses.tolist(), pkts.tolist())] == want


def test_jitter_on_columns_is_the_rfc3550_step_bit_for_bit():
    rng = np.random.default_rng(11)
    jitter = rng.random(500) * 5.0
    last = rng.integers(1, 10**9, 500) / 1e6
    rtt = rng.integers(1, 10**9, 500) / 1e6
    got = jitter_step(jitter, last, rtt)
    want = [j + (abs(r - p) - j) / 16.0
            for j, p, r in zip(jitter.tolist(), last.tolist(), rtt.tolist())]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    assert [jitter_step(j, p, r) for j, p, r in zip(
        jitter.tolist(), last.tolist(), rtt.tolist())] == want


def test_an_empty_tick_is_fair_and_idle():
    empty = np.zeros(0, dtype=np.int64)
    assert throughput_bps(empty, 100).size == 0
    assert link_utilization(empty, 100, 10**9) == 0.0
    assert jain_fairness(np.zeros(0)) == 1.0
    assert type(throughput_bps(5, 0)) is float
    assert throughput_bps(np.ones(3, np.int64), 0).tolist() == [0.0] * 3


def test_a_column_sum_is_pythons_past_int64():
    near = np.array([(1 << 62) + 5, 1 << 62, 3, -(1 << 62)], dtype=np.int64)
    assert int_sum(near) == sum(near.tolist()) == (1 << 62) + 8
    wide = np.full(9, 1 << 60, dtype=np.int64)
    assert int_sum(wide) == 9 << 60 and type(int_sum(wide)) is int
    assert int_sum(np.array([-(1 << 63)], dtype=np.int64)) == -(1 << 63)
    assert int_sum(np.zeros(0, dtype=np.int64)) == 0
