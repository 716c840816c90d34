"""Property-based guarantees of the read-flip histogram extern.

The two properties the histogram subsystem's correctness leans on
(docs/observability.md "Data-plane histograms"):

- **conservation**: across an arbitrary interleaving of observes and
  flips/extracts, every sample is extracted exactly once — the sum of
  extracted windows plus the residue still in the banks equals the
  number of observations, per row and per bin.
- **quantile monotonicity**: q <= q' implies quantile(q) <= quantile(q'),
  so percentile tables can never cross.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.p4.histogram import HistogramRegister, bin_quantile

EDGES = (10, 100, 1_000, 10_000)

# An op is either an observation (row, value) or a control-plane extract.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 3), st.integers(0, 20_000)),
        st.just("extract"),
        st.just("flip"),
    ),
    min_size=1, max_size=200,
)


@given(_OPS)
@settings(max_examples=80, deadline=None)
def test_property_conservation_across_flip_schedules(ops):
    """sum(extracted windows) + bank residue == observations, per bin."""
    h = HistogramRegister("h", 4, EDGES)
    extracted = np.zeros((4, h.nbins), dtype=np.uint64)
    observed = np.zeros((4, h.nbins), dtype=np.uint64)
    nobs = 0
    for op in ops:
        if op == "extract":
            extracted += h.extract()
        elif op == "flip":
            h.flip()  # a bare flip must never lose the quiescent bank
        else:
            row, value = op
            h.observe(row, value)
            observed[row][np.searchsorted(EDGES, value)] += 1
            nobs += 1
    total = extracted + h.snapshot()
    assert int(total.sum()) == nobs
    assert np.array_equal(total, observed)


@given(st.lists(st.integers(0, 1000), min_size=5, max_size=6),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_property_quantile_monotone_in_q(counts, q1, q2):
    lo, hi = sorted((q1, q2))
    assert (bin_quantile(EDGES, counts, lo)
            <= bin_quantile(EDGES, counts, hi))


@given(st.lists(st.integers(0, 20_000), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_property_quantile_brackets_samples(values):
    """Any quantile of a binned sample set sits within [min bucket bound
    containing the smallest sample, max bucket bound containing the
    largest] — the bucket-upper-bound estimator never invents bins."""
    h = HistogramRegister("h", 1, EDGES)
    for v in values:
        h.observe(0, v)
    counts = h.snapshot()[0]
    bounds = list(EDGES)
    def bucket_bound(v):
        i = int(np.searchsorted(EDGES, v))
        return bounds[i] if i < len(bounds) else bounds[-1]
    lo_bound = bucket_bound(min(values))
    hi_bound = bucket_bound(max(values))
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        est = bin_quantile(EDGES, counts, q)
        assert lo_bound <= est <= hi_bound
