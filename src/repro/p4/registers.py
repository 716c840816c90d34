"""Stateful register arrays and the read/flip bank pair.

P4 registers are fixed-width cell arrays that the data plane reads/
modifies/writes per packet and the control plane reads (and optionally
clears) asynchronously.  We back them with preallocated numpy arrays —
the guide's "hot state lives in arrays, updated in place" rule — and
model width truncation, which is semantically important: a 32-bit
timestamp register on Tofino wraps, and Algorithm 1 must survive that.
An array too large to preallocate (the oracle's reference gives every
32-bit flow ID its own cell) keeps only the cells ever written.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.telemetry import hooks

#: Arrays above this many cells are sparse: a dict of the written cells.
SPARSE_CELLS = 1 << 24


class _SparseCells(dict):
    """Cell index -> value for the cells written so far; any other reads 0.
    Serves the per-cell ops; the bulk control-plane ones need a dense array."""

    def __missing__(self, index: int) -> int:
        return 0


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
        self._cells = (np.zeros(size, dtype=np.uint64) if size <= SPARSE_CELLS
                       else _SparseCells())
        # Plain-int data-plane op tally, pulled by the telemetry collector.
        self.ops = 0
        # Provenance: mutating ops report old -> new under the packet
        # context (and feed the last-writer map the control plane uses
        # to attribute extractions).  Reads stay untraced.
        self._trace = hooks.tracer
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


class BankPair:
    """Two same-shape ``uint64`` banks under the PrintQueue read/flip
    discipline, shared by every extern the control plane drains as
    per-window deltas (P4TG-style RTT histograms, queue time windows).

    The data plane always writes ``_banks[active]``; the control plane
    :meth:`flip`\\ s and then reads/clears the now-quiescent bank at
    leisure while new updates land in the other.  Every update is in
    exactly one bank, so each :meth:`extract` returns exactly what was
    written since the previous one — nothing lost, nothing counted twice
    (the conservation property the hypothesis suites pin down across
    arbitrary flip schedules).
    """

    def __init__(self, name: str, shape: tuple, writer_cells: int) -> None:
        self.name = name
        self._banks = [np.zeros(shape, dtype=np.uint64),
                       np.zeros(shape, dtype=np.uint64)]
        self.active = 0
        # Plain-int tallies, pulled by telemetry/profiler collectors.
        self.ops = 0
        self.flips = 0
        # Provenance mirrors the RegisterArray discipline: sampled
        # packets record old -> new, unsampled ones keep the last-writer
        # linkage (``writer_cells`` indices) exact.
        self._trace = hooks.tracer
        self._lw = (None if self._trace is None
                    else self._trace.writer_map(name, writer_cells))

    def flip(self) -> int:
        """Swap the banks; returns the index of the now-quiescent bank
        (the one the data plane was writing until this call)."""
        quiescent = self.active
        self.active ^= 1
        self.flips += 1
        return quiescent

    def read_quiescent(self) -> np.ndarray:
        """Copy of the bank the data plane is *not* writing."""
        return self._banks[1 - self.active].copy()

    def clear_quiescent(self) -> None:
        self._banks[1 - self.active][:] = 0

    def extract(self) -> np.ndarray:
        """Flip, then read + clear the quiescent bank: everything
        written since the previous extract (plus whatever residue the
        pre-flip quiescent bank still held — zero under the
        flip/read/clear discipline this method enforces)."""
        self.flip()
        window = self.read_quiescent()
        self.clear_quiescent()
        return window

    def bank(self, which: int) -> np.ndarray:
        return self._banks[which].copy()

    def clear(self) -> None:
        self._banks[0][:] = 0
        self._banks[1][:] = 0

    def load_banks(self, bank0: np.ndarray, bank1: np.ndarray,
                   active: int) -> None:
        """Control-plane bulk restore of both banks and the flip phase
        (checkpoint path)."""
        bank0 = np.asarray(bank0, dtype=np.uint64)
        bank1 = np.asarray(bank1, dtype=np.uint64)
        if bank0.shape != self._banks[0].shape or bank1.shape != self._banks[1].shape:
            raise ValueError(f"{self.name!r} bank shape mismatch")
        if active not in (0, 1):
            raise ValueError("active bank must be 0 or 1")
        self._banks[0][:] = bank0
        self._banks[1][:] = bank1
        self.active = active
