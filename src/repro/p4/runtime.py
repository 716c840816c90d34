"""A P4Runtime-like control API.

The paper's control plane "utilizes the APIs provided by the switch
manufacturer to access the measurements maintained by the data plane at
run-time" (§3.2).  :class:`P4Program` is the named-object registry a
compiled program exposes (registers, sketches, digests, histogram and
time-window bank pairs); :class:`P4RuntimeClient` is the handle the
control plane talks through — the only coupling between
:mod:`repro.core.control_plane` and the data-plane internals.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.p4.externs import Digest, DigestReceiver
from repro.p4.registers import BankPair, RegisterArray
from repro.p4.sketch import CountMinSketch

if TYPE_CHECKING:
    from repro.p4.histogram import HistogramRegister
    from repro.p4.time_windows import TimeWindowRegister


def _array_dump(obj) -> Dict[str, np.ndarray]:
    return {"": obj.snapshot()}


def _array_load(obj, need: Callable[[str], np.ndarray]) -> None:
    obj.load(need(""))


def _banks_dump(pair: BankPair) -> Dict[str, np.ndarray]:
    # Both banks plus the flip phase: two replays of the same capture
    # with the same flip schedule must digest equal.
    return {"/bank0": pair.bank(0), "/bank1": pair.bank(1),
            "/active": np.array([pair.active], dtype=np.uint64)}


def _banks_load(pair: BankPair, need: Callable[[str], np.ndarray]) -> None:
    pair.load_banks(need("/bank0"), need("/bank1"), int(need("/active")[0]))


class _Kind(NamedTuple):
    """What the registry knows about one extern kind."""

    noun: str  # as error messages spell it
    # (state_snapshot key prefix, extern -> {key suffix: array},
    # (extern, key suffix -> array) -> None); None: stateless.
    state: Optional[Tuple[str, Callable, Callable]] = None
    # Plain-int op tallies observers pull: (family, attribute -> extra
    # label, "" for none).
    tallies: Tuple[str, Dict[str, str]] = ("", {})


#: One row per extern kind a program can hold, keyed by the
#: :class:`P4Program` attribute that maps name -> extern.  Row order is
#: :meth:`P4Program.state_snapshot` order.
_KINDS: Dict[str, _Kind] = {
    "registers": _Kind("register", ("register", _array_dump, _array_load),
                       ("register_ops", {"ops": ""})),
    "sketches": _Kind("sketch", ("sketch", _array_dump, _array_load),
                      ("sketch_ops", {"updates": "update", "queries": "query"})),
    "digests": _Kind("digest", tallies=("digest_msgs", {"emitted": "emitted",
                                                        "dropped": "dropped"})),
    "histograms": _Kind("histogram", ("histogram", _banks_dump, _banks_load)),
    "time_windows": _Kind("time-window register",
                          ("time_window", _banks_dump, _banks_load)),
}


class P4Program:
    """Registry of a loaded program's control-plane-visible objects."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.registers: Dict[str, RegisterArray] = {}
        self.digests: Dict[str, Digest] = {}
        self.sketches: Dict[str, CountMinSketch] = {}
        self.histograms: Dict[str, HistogramRegister] = {}
        self.time_windows: Dict[str, TimeWindowRegister] = {}

    # Registration (called by the program at construction time).

    def _add(self, kind: str, name: str, obj):
        table = getattr(self, kind)
        if name in table:
            raise ValueError(f"duplicate {_KINDS[kind].noun} {name!r}")
        table[name] = obj
        return obj

    def register(self, reg: RegisterArray) -> RegisterArray:
        return self._add("registers", reg.name, reg)

    def digest(self, dig: Digest) -> Digest:
        return self._add("digests", dig.name, dig)

    def sketch(self, name: str, cms: CountMinSketch) -> CountMinSketch:
        return self._add("sketches", name, cms)

    def histogram(self, hist: HistogramRegister) -> HistogramRegister:
        return self._add("histograms", hist.name, hist)

    def time_window(self, tw: TimeWindowRegister) -> TimeWindowRegister:
        return self._add("time_windows", tw.name, tw)

    def lookup(self, kind: str, name: str):
        """The ``kind`` extern registered as ``name``; a miss names what
        the program does hold."""
        table = getattr(self, kind)
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"program {self.name!r} has no {_KINDS[kind].noun} {name!r}; "
                f"available: {sorted(table)}"
            ) from None

    def tallies(self) -> Dict[tuple, int]:
        """``(family, name, *labels) -> count`` for every plain-int op
        tally the externs keep — register ALU ops, sketch updates and
        queries, digests emitted and dropped.  What telemetry, the
        profiler's op sources and the path-equivalence harness pull."""
        out: Dict[tuple, int] = {}
        for attr, kind in _KINDS.items():
            family, attributes = kind.tallies
            for name, obj in getattr(self, attr).items():
                for attribute, label in attributes.items():
                    key = (family, name, label) if label else (family, name)
                    out[key] = getattr(obj, attribute)
        return out

    # -- whole-program state (validation / replay round-trips) ---------------

    def state_snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of every stateful object the data plane owns: one array per
        register, one ``(depth, width)`` matrix per sketch, both banks and
        the flip phase per bank pair.  This is what a full control-plane
        register sync would return, and what the differential checker and
        the replay round-trip tests compare."""
        state: Dict[str, np.ndarray] = {}
        for attr, kind in _KINDS.items():
            if kind.state is None:
                continue
            prefix, dump, _ = kind.state
            for name, obj in getattr(self, attr).items():
                for suffix, arr in dump(obj).items():
                    state[f"{prefix}/{name}{suffix}"] = arr
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

        for attr, kind in _KINDS.items():
            if kind.state is None:
                continue
            prefix, _, load = kind.state
            for name, obj in getattr(self, attr).items():
                load(obj, lambda suffix, base=f"{prefix}/{name}":
                     need(base + suffix))


class P4RuntimeClient:
    """Control-plane handle: named reads/writes plus digest subscription."""

    def __init__(self, program: P4Program) -> None:
        self.program = program
        self.register_reads = 0

    # -- registers ---------------------------------------------------------

    def read_register(self, name: str, index: Optional[int] = None):
        reg = self.program.lookup("registers", name)
        self.register_reads += 1
        if index is None:
            return reg.snapshot()
        return reg.read(index)

    def read_registers(self, name: str, indices: Sequence[int]) -> np.ndarray:
        """One batched read — a whole column of ``name`` in one call,
        the way a P4Runtime/BfRt client reads a register for many flows."""
        self.register_reads += 1
        return self.program.lookup("registers", name).read_many(indices)

    def clear_register(self, name: str,
                       index: Union[None, int, Sequence[int]] = None) -> None:
        self.program.lookup("registers", name).clear(index)

    # -- bank pairs ----------------------------------------------------------

    def extract_histogram(self, name: str) -> np.ndarray:
        """Flip the banks and return + clear the quiescent one — the
        per-window delta counts since the previous extraction."""
        self.register_reads += 1
        return self.program.lookup("histograms", name).extract()

    def extract_time_windows(self, name: str) -> np.ndarray:
        """Flip the banks and return + clear the quiescent one — every
        window cell written since the previous extraction."""
        self.register_reads += 1
        return self.program.lookup("time_windows", name).extract()

    # -- digests -----------------------------------------------------------------

    def subscribe_digest(self, name: str, receiver: DigestReceiver) -> None:
        self.program.lookup("digests", name).subscribe(receiver)

    def unsubscribe_digest(self, name: str, receiver: DigestReceiver) -> None:
        """Detach a receiver; unseen messages backlog for the successor
        (how a restarted control plane catches up on digests)."""
        self.program.lookup("digests", name).unsubscribe(receiver)
