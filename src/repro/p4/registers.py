"""Stateful register arrays.

P4 registers are fixed-width cell arrays that the data plane reads/
modifies/writes per packet and the control plane reads (and optionally
clears) asynchronously.  We back them with preallocated numpy arrays —
the guide's "hot state lives in arrays, updated in place" rule — and
model width truncation, which is semantically important: a 32-bit
timestamp register on Tofino wraps, and Algorithm 1 must survive that.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.telemetry import provenance


class RegisterArray:
    """A register array of ``size`` cells, each ``width_bits`` wide."""

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        if size <= 0:
            raise ValueError("register size must be positive")
        if not 1 <= width_bits <= 64:
            raise ValueError("width must be between 1 and 64 bits")
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        # uint64 holds any width up to 64; masking keeps wrap semantics.
        self._cells = np.zeros(size, dtype=np.uint64)
        # Plain-int data-plane op tally, pulled by the telemetry collector.
        self.ops = 0
        # Provenance: mutating ops report old -> new under the packet
        # context (and feed the last-writer map the control plane uses
        # to attribute extractions).  Reads stay untraced.
        self._trace = provenance.tracer()
        self._lw = (None if self._trace is None
                    else self._trace.writer_map(name, size))

    # -- data-plane access (per packet) ---------------------------------------

    def read(self, index: int) -> int:
        self.ops += 1
        return int(self._cells[index])

    def write(self, index: int, value: int) -> None:
        self.ops += 1
        tr = self._trace
        if tr is not None:
            tid = tr._ctx_id
            if tid:
                if tr._ctx_rec:
                    old = int(self._cells[index])
                    self._cells[index] = value & self._mask
                    tr.register_write(self.name, index, old,
                                      value & self._mask)
                    return
                # Unsampled packet: keep the last-writer linkage exact
                # (the control plane must not attribute this cell to an
                # older, sampled packet) without paying for the event.
                self._lw[index] = tid
        self._cells[index] = value & self._mask

    def add(self, index: int, value: int) -> int:
        """Read-modify-write increment; returns the new value."""
        self.ops += 1
        old = int(self._cells[index])
        new = (old + value) & self._mask
        self._cells[index] = new
        tr = self._trace
        if tr is not None:
            tid = tr._ctx_id
            if tid:
                if tr._ctx_rec:
                    tr.register_write(self.name, index, old, new)
                else:
                    self._lw[index] = tid
        return new

    def maximum(self, index: int, value: int) -> int:
        """Tofino-style max ALU: keep the larger of cell and value."""
        self.ops += 1
        old = int(self._cells[index])
        new = max(old, value & self._mask)
        self._cells[index] = new
        tr = self._trace
        if tr is not None:
            tid = tr._ctx_id
            if tid:
                if tr._ctx_rec:
                    tr.register_write(self.name, index, old, new)
                else:
                    self._lw[index] = tid
        return new

    # -- control-plane access (bulk) -----------------------------------------

    def snapshot(self) -> np.ndarray:
        """Copy of all cells (a control-plane sync read)."""
        return self._cells.copy()

    def read_many(self, indices: Sequence[int]) -> np.ndarray:
        """One control-plane sweep over ``indices``: a fresh array, and
        one ``ops`` per cell — what that many ``read`` calls tally."""
        self.ops += len(indices)
        return self._cells[np.asarray(indices, dtype=np.intp)]

    def clear(self, index: Union[None, int, Sequence[int]] = None) -> None:
        """Zero one cell, the listed cells, or (``None``) all of them."""
        if index is None:
            self._cells[:] = 0
        else:
            self._cells[index] = 0

    def load(self, values: np.ndarray) -> None:
        """Control-plane bulk write (used by tests and resets)."""
        if len(values) != self.size:
            raise ValueError("value array size mismatch")
        self._cells[:] = np.asarray(values, dtype=np.uint64) & np.uint64(self._mask)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisterArray({self.name!r}, size={self.size}, width={self.width_bits})"


class Counter:
    """An indexed packet/byte counter pair (P4 ``counter`` extern)."""

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise ValueError("counter size must be positive")
        self.name = name
        self.size = size
        self._packets = np.zeros(size, dtype=np.uint64)
        self._bytes = np.zeros(size, dtype=np.uint64)

    def count(self, index: int, nbytes: int) -> None:
        self._packets[index] += 1
        self._bytes[index] += np.uint64(nbytes)

    def packets(self, index: int) -> int:
        return int(self._packets[index])

    def bytes(self, index: int) -> int:
        return int(self._bytes[index])

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        return self._packets.copy(), self._bytes.copy()

    def clear(self) -> None:
        self._packets[:] = 0
        self._bytes[:] = 0

    def load(self, packets: np.ndarray, nbytes: np.ndarray) -> None:
        """Control-plane bulk restore of both tallies (checkpoint path)."""
        if len(packets) != self.size or len(nbytes) != self.size:
            raise ValueError("counter array size mismatch")
        self._packets[:] = np.asarray(packets, dtype=np.uint64)
        self._bytes[:] = np.asarray(nbytes, dtype=np.uint64)
