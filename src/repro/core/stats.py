"""Control-plane derived statistics (§5.3).

These are the computations that "surpass the data plane's computational
and resource constraints": Jain's fairness index (eq. 1), link
utilisation, and aggregate traffic counters.  A tick computes them on
its register columns (int64 / float64 numpy arrays); each per-flow
formula takes a Python number or such a column and is, element by
element, the Python arithmetic to the last bit (tests/core/test_stats_columns.py).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index (paper eq. 1):

    ``F = (sum x_i)^2 / (N * sum x_i^2)``

    Returns 1.0 for an empty or all-zero allocation (vacuously fair),
    otherwise a value in ``(0, 1]`` — 1/N when one flow takes everything,
    1 for a perfectly even split.
    """
    if not isinstance(allocations, (np.ndarray, list, tuple)):
        allocations = list(allocations)
    x = np.asarray(allocations, dtype=float)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("allocations must be non-negative")
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom


def link_utilization(byte_deltas: Iterable[int], interval_ns: int, capacity_bps: int) -> float:
    """Fraction of ``capacity_bps`` consumed by the observed flows over
    ``interval_ns``.  Clamped to [0, 1.5] (transient >1 readings can occur
    when a queue drains — worth seeing, but bounded for sanity)."""
    if interval_ns <= 0:
        raise ValueError("interval must be positive")
    if capacity_bps <= 0:
        raise ValueError("capacity must be positive")
    total = int_sum(byte_deltas) if isinstance(byte_deltas, np.ndarray) else sum(byte_deltas)
    bits = 8 * total
    util = bits * 1e9 / (interval_ns * capacity_bps)
    return min(util, 1.5)


def int_sum(column: np.ndarray) -> int:
    """The sum of an int64 column as Python's ``sum`` gives it: summed
    in int64 where no partial sum can overflow, else as Python ints."""
    if not len(column):
        return 0
    bound = max(-int(column.min()), int(column.max()))
    if bound * len(column) < 1 << 63:
        return int(column.sum())
    return sum(column.tolist())


def coefficient_of_variation(values: Sequence[float]) -> float:
    """CV = std/mean; 0 for constant series, inf-safe (0 mean -> 0).
    The ufuncs ``np.mean`` / ``np.std`` end in, without their wrappers:
    theirs to the last bit (``flight_cv`` is archived; ``sum()`` is not)."""
    x = np.array(values, dtype=float)
    n = x.size
    if n < 2:
        return 0.0
    mean = float(np.add.reduce(x) / n)
    if mean == 0.0:
        return 0.0
    dev = x - mean
    np.multiply(dev, dev, out=dev)
    return math.sqrt(np.add.reduce(dev) / n) / mean


def throughput_bps(byte_delta, interval_ns: int):
    """Bits per second of ``byte_delta`` bytes over ``interval_ns``.  On
    a column ``* 8.0`` is Python's ``* 8`` then its int-to-float
    rounding: a power of two scales the rounded value exactly, and no
    int64 product overflows."""
    if interval_ns <= 0:
        return np.zeros(len(byte_delta)) if isinstance(byte_delta, np.ndarray) else 0.0
    return byte_delta * 8.0 * 1e9 / interval_ns


def loss_pct(loss_delta, pkt_delta):
    """Losses per packet over an interval, in %, with at least one
    packet counted; clamped at 100 (regressions observed before a flow
    claimed its slot can make the raw ratio exceed it)."""
    if isinstance(loss_delta, np.ndarray):
        return np.minimum(100.0, 100.0 * loss_delta / np.maximum(1, pkt_delta))
    return min(100.0, 100.0 * loss_delta / max(1, pkt_delta))


def jitter_step(jitter_ms, last_rtt_ms, rtt_ms):
    """RFC 3550 smoothing: the jitter after an RTT sample that follows
    ``last_rtt_ms``, with gain 1/16."""
    return jitter_ms + (abs(rtt_ms - last_rtt_ms) - jitter_ms) / 16.0
