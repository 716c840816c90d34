"""Read-flip histogram register extern.

P4TG-style distribution measurement: instead of a scalar "latest RTT"
register, the data plane maintains one bin-count row per tracked index
(flow slot or egress port) and increments the bin a sample falls into —
a handful of TCAM range matches plus one register increment on hardware,
one ``bisect`` plus one array increment here.

The control-plane read problem is solved PrintQueue-style with the
paired banks of :class:`repro.p4.registers.BankPair`: each ``extract()``
returns exactly the samples observed since the previous extraction (a
per-window delta), and no sample is ever lost or double-counted.

Bin edges are set at construction (the stages use :func:`log_edges`),
shared by every row of one extern, and use the same ``bisect_left``
upper-bound semantics as :class:`repro.telemetry.metrics.Histogram`:
``counts`` has ``len(edges) + 1`` entries, the last being the overflow
bucket, so the existing
:func:`repro.telemetry.export.histogram_quantile` consumes the dumps
unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence

import numpy as np

from repro.p4.registers import BankPair

__all__ = ["HistogramRegister", "log_edges", "bin_quantile", "bin_series"]


def log_edges(lo: int, hi: int, nbins: int) -> List[int]:
    """``nbins`` geometrically-spaced upper bounds covering [lo, hi] —
    constant *relative* resolution, the right shape for latency."""
    if nbins < 2:
        raise ValueError("need at least 2 bins")
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    ratio = (hi / lo) ** (1.0 / nbins)
    edges = [int(round(lo * ratio ** (i + 1))) for i in range(nbins)]
    edges[-1] = int(hi)
    return _dedup(edges)


def _dedup(edges: List[int]) -> List[int]:
    """Strictly increasing edges (integer rounding can collapse the
    lowest log bins at coarse resolutions)."""
    out: List[int] = []
    for e in edges:
        if not out or e > out[-1]:
            out.append(e)
    return out


def bin_series(edges: Sequence[int], counts: Sequence[int],
               observed_max: Optional[float] = None) -> dict:
    """The ``{"buckets", "counts", "count", "max"}`` dump shape the
    telemetry exporters consume, from one bin row."""
    counts = [int(c) for c in counts]
    return {
        "buckets": list(edges),
        "counts": counts,
        "count": sum(counts),
        "max": observed_max,
    }


def bin_quantile(edges: Sequence[int], counts: Sequence[int], q: float) -> float:
    """Bucket-upper-bound ``q`` quantile of one bin row (same estimator
    as the telemetry histograms, so percentiles agree across layers).
    The exporters load on first use: a monitor builds this extern without
    reading a quantile."""
    from repro.telemetry.export import histogram_quantile
    return histogram_quantile(bin_series(edges, counts), q)


class HistogramRegister(BankPair):
    """``size`` rows of bin counters with paired read/flip banks.

    Data plane: :meth:`observe` bins a sample into the active bank.
    Control plane: :meth:`extract` flips the banks and returns + clears
    the quiescent one — the per-window delta since the last extract.
    """

    def __init__(self, name: str, size: int, edges: Sequence[int]) -> None:
        if size <= 0:
            raise ValueError("histogram size must be positive")
        edges = [int(e) for e in edges]
        if len(edges) < 2:
            raise ValueError("need at least 2 bin edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
        self.size = size
        self.edges = edges
        self.nbins = len(edges) + 1  # + overflow bucket
        # Two (size, nbins) banks; the data plane writes banks[active].
        super().__init__(name, (size, self.nbins), size)

    def observe(self, index: int, value: int) -> None:
        """Data-plane access (per packet)."""
        self.ops += 1
        b = bisect_left(self.edges, value)
        row = self._banks[self.active][index]
        tr = self._trace
        if tr is not None:
            tid = tr._ctx_id
            if tid:
                if tr._ctx_rec:
                    old = int(row[b])
                    row[b] = old + 1
                    tr.register_write(self.name, index, old, old + 1)
                    return
                self._lw[index] = tid
        row[b] += np.uint64(1)

    def snapshot(self) -> np.ndarray:
        """Both banks summed — the all-time counts regardless of flip
        phase (control-plane sync read, used by tests and state dumps)."""
        return self._banks[0] + self._banks[1]

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistogramRegister({self.name!r}, size={self.size}, "
                f"bins={self.nbins})")
