"""Exponentially-coarsening time-window registers (queue ancestry).

PrintQueue-style data-plane forensics: the switch keeps ``levels``
register arrays, each recording *who occupied the queue* during fixed
time windows.  Level 0 uses the finest window (``base_window_ns``);
every level above doubles the window width, so level k covers
``cells * base_window_ns << k`` nanoseconds of history with the same
memory.  A packet leaving the queue updates one cell per level: the
cell for the window its egress timestamp falls into.

Each cell is five ``uint64`` fields::

    WID    window id (egress_ts // width) — identifies the window the
           cell currently holds; the ring reuses cells, so a stale id
           means the cell belongs to an evicted, older window
    SIG    flow signature of the *last* packet recorded (last-writer
           sampling, the single-slot compromise hardware makes)
    PKTS   packets recorded in the window
    BYTES  ip_total_len bytes recorded in the window
    MAXQ   maximum queue delay (ns) seen by any packet in the window

Extraction is the :class:`repro.p4.registers.BankPair` discipline:
``flip()`` swaps the active bank between packet updates, the control
plane reads and clears the quiescent bank, and nothing is lost — every
update lands in exactly one bank.  Cells evicted *in the data plane*
(ring wrap-around before the control plane read them) are tallied in
``evicted_pkts``/``evicted_bytes`` so the conservation invariant stays
exact: per level, packets observed == extracted + residue + evicted.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from repro.p4.registers import BankPair

__all__ = [
    "TimeWindowRegister",
    "WindowRecord",
    "decode_windows",
    "F_WID",
    "F_SIG",
    "F_PKTS",
    "F_BYTES",
    "F_MAXQ",
    "N_FIELDS",
]

# Cell field layout (all uint64).
F_WID, F_SIG, F_PKTS, F_BYTES, F_MAXQ = range(5)
N_FIELDS = 5


class WindowRecord(NamedTuple):
    """One decoded, non-empty time-window cell."""

    level: int
    window_id: int
    start_ns: int
    width_ns: int
    flow_sig: int
    pkt_count: int
    byte_count: int
    max_qdepth_ns: int

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.width_ns


def decode_windows(bank: np.ndarray, base_window_ns: int) -> List[WindowRecord]:
    """Decode a ``(levels, cells, 5)`` bank into its non-empty windows."""
    records: List[WindowRecord] = []
    levels = bank.shape[0]
    for level in range(levels):
        width = base_window_ns << level
        rows = bank[level]
        for idx in np.flatnonzero(rows[:, F_PKTS]):
            row = rows[idx]
            wid = int(row[F_WID])
            records.append(WindowRecord(
                level=level,
                window_id=wid,
                start_ns=wid * width,
                width_ns=width,
                flow_sig=int(row[F_SIG]),
                pkt_count=int(row[F_PKTS]),
                byte_count=int(row[F_BYTES]),
                max_qdepth_ns=int(row[F_MAXQ]),
            ))
    return records


class TimeWindowRegister(BankPair):
    """k-level coarsening time-window bank pair with flip extraction."""

    def __init__(self, name: str, levels: int, cells: int,
                 base_window_ns: int) -> None:
        if levels < 1:
            raise ValueError(f"time windows need >= 1 level, got {levels}")
        if cells <= 0:
            raise ValueError(f"time-window register needs > 0 cells, got {cells}")
        if base_window_ns <= 0:
            raise ValueError(
                f"base window must be positive, got {base_window_ns} ns")
        super().__init__(name, (levels, cells, N_FIELDS), cells)
        self.levels = levels
        self.cells = cells
        self.base_window_ns = base_window_ns
        # Windows overwritten in the data plane before extraction: the
        # ring reused their cell.  Plain ints — hot path.
        self.evicted_pkts = [0] * levels
        self.evicted_bytes = [0] * levels

    # -- data plane ---------------------------------------------------

    def observe(self, ts_ns: int, flow_sig: int, nbytes: int,
                qdepth_ns: int) -> None:
        """Record one departing packet into its window at every level."""
        self.ops += 1
        bank = self._banks[self.active]
        cells = self.cells
        width = self.base_window_ns
        old_pkts0 = 0
        new_pkts0 = 0
        idx0 = 0
        for level in range(self.levels):
            wid = ts_ns // width
            idx = wid % cells
            cell = bank[level, idx]
            pkts = int(cell[F_PKTS])
            if pkts and int(cell[F_WID]) != wid:
                # Ring wrapped: an older window still occupied the cell.
                self.evicted_pkts[level] += pkts
                self.evicted_bytes[level] += int(cell[F_BYTES])
                cell[:] = 0
                pkts = 0
            cell[F_WID] = wid
            cell[F_SIG] = flow_sig
            cell[F_PKTS] = pkts + 1
            cell[F_BYTES] += np.uint64(nbytes)
            if qdepth_ns > cell[F_MAXQ]:
                cell[F_MAXQ] = qdepth_ns
            if level == 0:
                old_pkts0, new_pkts0, idx0 = pkts, pkts + 1, idx
            width <<= 1
        tr = self._trace
        if tr is not None:
            tid = tr._ctx_id
            if tid:
                if tr._ctx_rec:
                    tr.register_write(self.name, idx0, old_pkts0, new_pkts0)
                    return
                self._lw[idx0] = tid

    # -- control plane ------------------------------------------------

    def clear(self) -> None:
        super().clear()
        self.evicted_pkts = [0] * self.levels
        self.evicted_bytes = [0] * self.levels
