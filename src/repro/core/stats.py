"""Control-plane derived statistics (§5.3).

These are the computations that "surpass the data plane's computational
and resource constraints": Jain's fairness index (eq. 1), link
utilisation, and aggregate traffic counters.
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
    x = np.asarray(list(allocations), dtype=float)
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
    bits = 8 * sum(byte_deltas)
    util = bits * 1e9 / (interval_ns * capacity_bps)
    return min(util, 1.5)


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


def throughput_bps(byte_delta: int, interval_ns: int) -> float:
    if interval_ns <= 0:
        return 0.0
    return byte_delta * 8 * 1e9 / interval_ns
