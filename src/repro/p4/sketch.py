"""Count-min sketch (Cormode & Muthukrishnan 2005).

The paper's data plane "detects long flows using count-min sketches"
before allocating one of the 2048 per-flow register slots (§4).  The
sketch is ``depth`` rows of ``width`` counters; each row has its own
hash unit.  Standard CMS guarantees: estimate >= true count, and
``P[estimate > true + eps*N] <= delta`` for ``width = ceil(e/eps)``,
``depth = ceil(ln(1/delta))``.

``conservative`` enables conservative update (only raise the minimum
cells), which reduces overestimation at no asymptotic cost — a common
data-plane refinement and one of our ablation knobs.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.packet import FiveTuple
from repro.p4.hashes import HashEngine, pack_five_tuple
from repro.telemetry import hooks


class CountMinSketch:
    def __init__(
        self,
        width: int = 4096,
        depth: int = 3,
        conservative: bool = False,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self._rows = np.zeros((depth, width), dtype=np.uint64)
        self._hashes = [HashEngine(width, salt=row) for row in range(depth)]
        # Plain-int op tallies, pulled by the telemetry collector.
        self.updates = 0
        self.queries = 0
        self._trace = hooks.tracer

    # -- data-plane operations ----------------------------------------------

    def _indices(self, key: bytes) -> list[int]:
        return [h.index(key) for h in self._hashes]

    def update(self, key: bytes, amount: int = 1) -> int:
        """Add ``amount``; returns the post-update estimate."""
        if amount < 0:
            raise ValueError("CMS is additive-only")
        self.updates += 1
        idx = self._indices(key)
        if self.conservative:
            current = min(int(self._rows[r, i]) for r, i in enumerate(idx))
            target = current + amount
            for r, i in enumerate(idx):
                if self._rows[r, i] < target:
                    self._rows[r, i] = target
            if self._trace is not None and self._trace._ctx_rec:
                self._trace.event("register", "sketch-update", "cms",
                                  amount=amount, estimate=target)
            return target
        est = None
        for r, i in enumerate(idx):
            v = int(self._rows[r, i]) + amount
            self._rows[r, i] = v
            est = v if est is None else min(est, v)
        if self._trace is not None and self._trace._ctx_rec:
            self._trace.event("register", "sketch-update", "cms",
                              amount=amount, estimate=int(est))
        return int(est)

    def query(self, key: bytes) -> int:
        self.queries += 1
        return min(int(self._rows[r, i]) for r, i in enumerate(self._indices(key)))

    def update_tuple(self, ft: FiveTuple, amount: int = 1) -> int:
        return self.update(pack_five_tuple(ft), amount)

    def query_tuple(self, ft: FiveTuple) -> int:
        return self.query(pack_five_tuple(ft))

    # -- control-plane operations ---------------------------------------------

    def snapshot(self) -> np.ndarray:
        """Copy of the full (depth, width) counter matrix."""
        return self._rows.copy()

    def load(self, rows: np.ndarray) -> None:
        """Control-plane bulk restore of the counter matrix (checkpoint
        path) — hash engines are derived from geometry, not state."""
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.shape != self._rows.shape:
            raise ValueError("sketch matrix shape mismatch")
        self._rows[:] = rows

    def clear(self) -> None:
        self._rows[:] = 0

    def memory_cells(self) -> int:
        return self.width * self.depth
