"""A P4Runtime-like control API.

The paper's control plane "utilizes the APIs provided by the switch
manufacturer to access the measurements maintained by the data plane at
run-time" (§3.2).  :class:`P4Program` is the named-object registry a
compiled program exposes (registers, counters, tables, digests,
sketches); :class:`P4RuntimeClient` is the handle the control plane talks
through — the only coupling between :mod:`repro.core.control_plane` and
the data-plane internals.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.p4.externs import Digest, DigestReceiver
from repro.p4.histogram import HistogramRegister
from repro.p4.registers import Counter, RegisterArray
from repro.p4.sketch import CountMinSketch
from repro.p4.tables import MatchActionTable
from repro.p4.time_windows import TimeWindowRegister


class P4Program:
    """Registry of a loaded program's control-plane-visible objects."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.registers: Dict[str, RegisterArray] = {}
        self.counters: Dict[str, Counter] = {}
        self.tables: Dict[str, MatchActionTable] = {}
        self.digests: Dict[str, Digest] = {}
        self.sketches: Dict[str, CountMinSketch] = {}
        self.histograms: Dict[str, HistogramRegister] = {}
        self.time_windows: Dict[str, TimeWindowRegister] = {}

    # Registration (called by the program at construction time).

    def register(self, reg: RegisterArray) -> RegisterArray:
        if reg.name in self.registers:
            raise ValueError(f"duplicate register {reg.name!r}")
        self.registers[reg.name] = reg
        return reg

    def counter(self, ctr: Counter) -> Counter:
        if ctr.name in self.counters:
            raise ValueError(f"duplicate counter {ctr.name!r}")
        self.counters[ctr.name] = ctr
        return ctr

    def table(self, tbl: MatchActionTable) -> MatchActionTable:
        if tbl.name in self.tables:
            raise ValueError(f"duplicate table {tbl.name!r}")
        self.tables[tbl.name] = tbl
        return tbl

    def digest(self, dig: Digest) -> Digest:
        if dig.name in self.digests:
            raise ValueError(f"duplicate digest {dig.name!r}")
        self.digests[dig.name] = dig
        return dig

    def sketch(self, name: str, cms: CountMinSketch) -> CountMinSketch:
        if name in self.sketches:
            raise ValueError(f"duplicate sketch {name!r}")
        self.sketches[name] = cms
        return cms

    def histogram(self, hist: HistogramRegister) -> HistogramRegister:
        if hist.name in self.histograms:
            raise ValueError(f"duplicate histogram {hist.name!r}")
        self.histograms[hist.name] = hist
        return hist

    def time_window(self, tw: TimeWindowRegister) -> TimeWindowRegister:
        if tw.name in self.time_windows:
            raise ValueError(f"duplicate time-window register {tw.name!r}")
        self.time_windows[tw.name] = tw
        return tw

    # -- whole-program state (validation / replay round-trips) ---------------

    def state_snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of every stateful object the data plane owns: one array per
        register, one ``(depth, width)`` matrix per sketch and a packet/byte
        pair per counter.  This is what a full control-plane register sync
        would return, and what the differential checker and the replay
        round-trip tests compare."""
        state: Dict[str, np.ndarray] = {}
        for name, reg in self.registers.items():
            state[f"register/{name}"] = reg.snapshot()
        for name, cms in self.sketches.items():
            state[f"sketch/{name}"] = cms.snapshot()
        for name, ctr in self.counters.items():
            pkts, nbytes = ctr.snapshot()
            state[f"counter/{name}/packets"] = pkts
            state[f"counter/{name}/bytes"] = nbytes
        for name, hist in self.histograms.items():
            # Both banks plus the flip phase: two replays of the same
            # capture with the same flip schedule must digest equal.
            state[f"histogram/{name}/bank0"] = hist.bank(0)
            state[f"histogram/{name}/bank1"] = hist.bank(1)
            state[f"histogram/{name}/active"] = np.array([hist.active],
                                                         dtype=np.uint64)
        for name, tw in self.time_windows.items():
            state[f"time_window/{name}/bank0"] = tw.bank(0)
            state[f"time_window/{name}/bank1"] = tw.bank(1)
            state[f"time_window/{name}/active"] = np.array([tw.active],
                                                           dtype=np.uint64)
        return state

    def state_digest(self) -> str:
        """SHA-256 over the canonical byte serialisation of
        :meth:`state_snapshot` — equal digests mean bit-identical data-plane
        state (two replays of the same capture must agree)."""
        h = hashlib.sha256()
        for name, arr in sorted(self.state_snapshot().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype=np.uint64).tobytes())
        return h.hexdigest()

    def state_restore(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_snapshot`: bulk-load every stateful
        object from a snapshot taken on a program with the same geometry
        (the checkpoint restore path).  After a restore,
        :meth:`state_digest` equals the digest of the snapshotted
        program."""
        def need(key: str) -> np.ndarray:
            try:
                return state[key]
            except KeyError:
                raise KeyError(
                    f"snapshot is missing {key!r} — was it taken on a "
                    f"program with the same geometry as {self.name!r}?"
                ) from None

        for name, reg in self.registers.items():
            reg.load(need(f"register/{name}"))
        for name, cms in self.sketches.items():
            cms.load(need(f"sketch/{name}"))
        for name, ctr in self.counters.items():
            ctr.load(need(f"counter/{name}/packets"),
                     need(f"counter/{name}/bytes"))
        for name, hist in self.histograms.items():
            hist.load_banks(need(f"histogram/{name}/bank0"),
                            need(f"histogram/{name}/bank1"),
                            int(need(f"histogram/{name}/active")[0]))
        for name, tw in self.time_windows.items():
            tw.load_banks(need(f"time_window/{name}/bank0"),
                          need(f"time_window/{name}/bank1"),
                          int(need(f"time_window/{name}/active")[0]))


class P4RuntimeClient:
    """Control-plane handle: named reads/writes plus digest subscription."""

    def __init__(self, program: P4Program) -> None:
        self.program = program
        self.register_reads = 0

    # -- registers ---------------------------------------------------------

    def read_register(self, name: str, index: Optional[int] = None):
        reg = self._reg(name)
        self.register_reads += 1
        if index is None:
            return reg.snapshot()
        return reg.read(index)

    def read_registers(self, name: str, indices: Sequence[int]) -> np.ndarray:
        """One batched read — a whole column of ``name`` in one call,
        the way a P4Runtime/BfRt client reads a register for many flows."""
        self.register_reads += 1
        return self._reg(name).read_many(indices)

    def write_register(self, name: str, index: int, value: int) -> None:
        self._reg(name).write(index, value)

    def clear_register(self, name: str,
                       index: Union[None, int, Sequence[int]] = None) -> None:
        self._reg(name).clear(index)

    def state_digest(self) -> str:
        return self.program.state_digest()

    def restore_state(self, state: Dict[str, np.ndarray]) -> None:
        """Bulk-load a full data-plane snapshot (checkpoint restore)."""
        self.program.state_restore(state)

    def _reg(self, name: str) -> RegisterArray:
        try:
            return self.program.registers[name]
        except KeyError:
            raise KeyError(
                f"program {self.program.name!r} has no register {name!r}; "
                f"available: {sorted(self.program.registers)}"
            ) from None

    # -- histograms ----------------------------------------------------------

    def histogram(self, name: str) -> HistogramRegister:
        try:
            return self.program.histograms[name]
        except KeyError:
            raise KeyError(
                f"program {self.program.name!r} has no histogram {name!r}; "
                f"available: {sorted(self.program.histograms)}"
            ) from None

    def read_histogram(self, name: str) -> np.ndarray:
        """All-time bin counts (both banks summed), one row per index."""
        self.register_reads += 1
        return self.histogram(name).snapshot()

    def extract_histogram(self, name: str) -> np.ndarray:
        """Flip the banks and return + clear the quiescent one — the
        per-window delta counts since the previous extraction."""
        self.register_reads += 1
        return self.histogram(name).extract()

    # -- time windows --------------------------------------------------------

    def time_window(self, name: str) -> TimeWindowRegister:
        try:
            return self.program.time_windows[name]
        except KeyError:
            raise KeyError(
                f"program {self.program.name!r} has no time-window register "
                f"{name!r}; available: {sorted(self.program.time_windows)}"
            ) from None

    def extract_time_windows(self, name: str) -> np.ndarray:
        """Flip the banks and return + clear the quiescent one — every
        window cell written since the previous extraction."""
        self.register_reads += 1
        return self.time_window(name).extract()

    # -- tables ----------------------------------------------------------------

    def table(self, name: str) -> MatchActionTable:
        return self.program.tables[name]

    # -- digests -----------------------------------------------------------------

    def subscribe_digest(self, name: str, receiver: DigestReceiver) -> None:
        try:
            self.program.digests[name].subscribe(receiver)
        except KeyError:
            raise KeyError(
                f"program {self.program.name!r} has no digest {name!r}; "
                f"available: {sorted(self.program.digests)}"
            ) from None

    def unsubscribe_digest(self, name: str, receiver: DigestReceiver) -> None:
        """Detach a receiver; unseen messages backlog for the successor
        (how a restarted control plane catches up on digests)."""
        try:
            self.program.digests[name].unsubscribe(receiver)
        except KeyError:
            raise KeyError(
                f"program {self.program.name!r} has no digest {name!r}; "
                f"available: {sorted(self.program.digests)}"
            ) from None
