"""Per-packet provenance tracing: windowed telemetry + triggered capture.

The metrics the instrument reports are *aggregates* — a throughput
sample says **that** bytes moved, not **which** packets moved them or
where in the TAP → parser → pipeline → register → report chain the
signal originated.  This module adds the missing explanation layer:
every simulated packet gets a stable **trace id**, inherited for free by
TAP mirror copies (a :class:`~repro.netsim.tap.MirrorCopy` wraps the
same :class:`~repro.netsim.packet.Packet` object), and every layer the
packet crosses appends a causally-linked :class:`TraceEvent`:

- netsim: enqueue / dequeue / drop with the queue depth at that instant;
- P4: parser accept/reject, each pipeline stage entered;
- registers/sketch: writes with old → new values;
- control plane: the extraction that *read* the slot a packet wrote
  (linked through a per-cell last-writer map);
- perfSONAR: the Logstash/archiver record that carried the measurement.

Storage follows PrintQueue's dual-time-window design: a **coarse**
always-on ring holding the events of probabilistically sampled packets
(long horizon, low cost), and a **fine** high-resolution ring holding
every event of the packets matching the flow/packet filter (or all
packets when unfiltered).  Capture is **event-triggered**: an alert
raise, a microburst detection, a loss-regression increment or an oracle
mismatch from the validation checker calls :meth:`ProvenanceTracer.fire`
which freezes the fine window into a :class:`FrozenWindow` dump.

Like :mod:`repro.telemetry`, the subsystem is off by default and binds
at construction time: instrumented components cache
``provenance.tracer()`` (``None`` when disabled) once, so the disabled
hot path costs at most a single ``is None`` test — the pipeline
traversal none at all, which tests/p4/test_pipeline_binding.py pins
(the coarse-only end-to-end budget is
``benchmarks/test_trace_overhead.py``).

Determinism: trace ids are assigned *densely per tracer* in first-seen
order (not from the process-global packet uid counter), so two runs of
the same seeded scenario with fresh tracers produce identical traces.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.telemetry import hooks

__all__ = [
    "TraceEvent",
    "FrozenWindow",
    "ProvenanceTracer",
    "TRIGGERS",
    "LAYERS",
    "enable",
    "disable",
    "active",
    "tracer",
    "reset",
]

#: Event-trigger reasons a tracer can arm (see :meth:`ProvenanceTracer.fire`).
TRIGGERS = ("microburst", "alert", "loss-regression", "oracle-mismatch")

#: Layers events are recorded under (one Perfetto process track each).
LAYERS = ("netsim", "p4", "register", "control-plane", "archiver")

DEFAULT_COARSE_WINDOW = 4096
DEFAULT_FINE_WINDOW = 8192
DEFAULT_SAMPLE_RATE = 1.0 / 64.0
DEFAULT_MAX_DUMPS = 8

_M64 = (1 << 64) - 1


class TraceEvent(NamedTuple):
    """One causally-linked observation of a packet (or its measurement).

    ``seq`` is a per-tracer monotonic sequence number — the total order
    events were recorded in, and the dedup key when an event sits in
    both windows.  ``detail`` carries event-specific context (queue
    depth, old/new register values, ...) as a plain JSON-able dict.
    """

    seq: int
    trace_id: int
    t_ns: int
    layer: str
    kind: str
    where: str
    detail: dict


class FrozenWindow(NamedTuple):
    """A fine-window snapshot taken when a trigger fired."""

    reason: str
    t_ns: int
    events: Tuple[TraceEvent, ...]
    detail: dict


class ProvenanceTracer:
    """Dual-window per-packet event recorder.

    Parameters
    ----------
    coarse_window, fine_window:
        Ring sizes in events.  ``fine_window=0`` disables the fine ring
        entirely (coarse-only mode, the cheapest always-on setting).
    sample_rate:
        Fraction of trace ids whose events enter the coarse ring,
        decided by a seeded integer hash of the trace id — per packet,
        deterministic, no RNG state on the hot path.
    flow:
        A :class:`~repro.netsim.packet.FiveTuple`; the fine ring keeps
        only packets of this flow **or its reverse** (so the ACK stream
        that closes the RTT loop is captured too).
    packet:
        A single trace id; the fine ring keeps only that packet.
    triggers:
        Which :data:`TRIGGERS` freeze the fine window when fired.
    """

    __slots__ = (
        "sample_rate", "seed", "flow", "packet", "armed", "max_dumps",
        "coarse", "fine", "dumps", "fires", "_writer_maps", "span_log",
        "events_recorded", "_seq", "_coarse_on", "_fine_on",
        "_sample_threshold", "_flow_keys", "_filtered", "_ids", "_next_id",
        "_fine_ids", "_decisions", "_ctx_id", "_ctx_t", "_ctx_fine",
        "_ctx_coarse", "_ctx_rec", "_report", "_last_extract_id",
    )

    def __init__(
        self,
        coarse_window: int = DEFAULT_COARSE_WINDOW,
        fine_window: int = DEFAULT_FINE_WINDOW,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        seed: int = 1,
        flow=None,
        packet: Optional[int] = None,
        triggers: Sequence[str] = TRIGGERS,
        max_dumps: int = DEFAULT_MAX_DUMPS,
    ) -> None:
        if coarse_window < 0 or fine_window < 0:
            raise ValueError("window sizes cannot be negative")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        unknown = set(triggers) - set(TRIGGERS)
        if unknown:
            raise ValueError(f"unknown triggers {sorted(unknown)}; "
                             f"choose from {TRIGGERS}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.flow = flow
        self.packet = packet
        self.armed: Set[str] = set(triggers)
        self.max_dumps = max_dumps
        self.coarse: Deque[TraceEvent] = deque(maxlen=max(coarse_window, 0))
        self.fine: Deque[TraceEvent] = deque(maxlen=max(fine_window, 0))
        self.dumps: List[FrozenWindow] = []
        self.fires: List[Tuple[str, int]] = []  # every fire(), armed or not

        # Cross-layer linkage: which trace id last wrote each register
        # cell — how a control-plane extraction names its packet.  One
        # preallocated int list per register array (see writer_map), so
        # the per-write store on the unsampled hot path is a plain
        # list[int] assignment, not a tuple-keyed dict insert.
        self._writer_maps: Dict[str, List[int]] = {}

        # Wide profiler root frames append here when a profiler is
        # enabled after this tracer (profiling.enable); exported as a
        # separate Perfetto track.
        self.span_log: List[dict] = []

        self.events_recorded = 0
        self._seq = 0
        self._coarse_on = coarse_window > 0 and sample_rate > 0.0
        self._fine_on = fine_window > 0
        self._sample_threshold = int(sample_rate * float(1 << 32))
        self._flow_keys = None
        if flow is not None:
            self._flow_keys = {flow, flow.reversed()}
        self._filtered = packet is not None or flow is not None
        # Dense per-tracer trace ids: packet uid -> trace id, assigned in
        # first-seen order so equal-seed runs get identical ids.
        self._ids: Dict[int, int] = {}
        self._next_id = 1
        # Trace ids that matched the fine filter (resolves non-packet
        # contexts like control reads back to a fine/coarse decision).
        self._fine_ids: Set[int] = set()
        # uid -> (tid, fine, coarse): the full recording decision, made
        # once per packet.  Filters and sampling depend only on immutable
        # packet identity, and a packet traverses the pipeline at least
        # twice (ingress + egress TAP copies), so later traversals pay
        # one dict probe instead of re-hashing the sample decision.
        self._decisions: Dict[int, Tuple[int, bool, bool]] = {}
        # Active packet context (pipeline traversal).
        self._ctx_id = 0
        self._ctx_t = 0
        self._ctx_fine = False
        self._ctx_coarse = False
        # Hot-path summary flag: is the active context recorded at all?
        # Hooks with per-stage/per-write cost branch on this one attribute
        # instead of calling in (see P4Pipeline._process_observed).
        self._ctx_rec = False
        # Active report context + the most recent control-read linkage.
        self._report: Optional[Tuple[Sequence[int], int]] = None
        self._last_extract_id = 0

    # -- identity ----------------------------------------------------------

    def trace_id(self, pkt) -> int:
        """The packet's dense trace id, assigned on first sight.  Mirror
        copies share the original Packet object, so they inherit the id
        with no extra bookkeeping."""
        uid = pkt.uid
        tid = self._ids.get(uid)
        if tid is None:
            tid = self._ids[uid] = self._next_id
            self._next_id += 1
        return tid

    def _sampled(self, tid: int) -> bool:
        """Seeded splitmix-style hash of the trace id vs the sample rate:
        deterministic, stateless, uniform."""
        x = (tid + self.seed * 0x9E3779B97F4A7C15) & _M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        x ^= x >> 31
        return (x & 0xFFFFFFFF) < self._sample_threshold

    def _decide(self, pkt, tid: int) -> Tuple[bool, bool]:
        """(fine, coarse) recording decision for one packet."""
        if self.packet is not None:
            fine = tid == self.packet
        elif self._flow_keys is not None:
            fine = pkt.five_tuple in self._flow_keys
        else:
            fine = True
        if fine and self._filtered:
            self._fine_ids.add(tid)
        return fine and self._fine_on, self._coarse_on and self._sampled(tid)

    def _decision(self, pkt) -> Tuple[int, bool, bool]:
        """Memoised (trace_id, fine, coarse) for a packet in hand."""
        dec = self._decisions.get(pkt.uid)
        if dec is None:
            tid = self.trace_id(pkt)
            fine, coarse = self._decide(pkt, tid)
            dec = self._decisions[pkt.uid] = (tid, fine, coarse)
        return dec

    def _decide_by_id(self, tid: int) -> Tuple[bool, bool]:
        """Same decision when only the trace id is known (control reads,
        report shipping) — filter membership was memoised at packet time."""
        fine = (not self._filtered) or tid in self._fine_ids
        return fine and self._fine_on, self._coarse_on and self._sampled(tid)

    # -- recording ---------------------------------------------------------

    def _emit(self, tid: int, t_ns: int, layer: str, kind: str, where: str,
              detail: dict, fine: bool, coarse: bool) -> None:
        ev = TraceEvent(self._seq, tid, t_ns, layer, kind, where, detail)
        self._seq += 1
        self.events_recorded += 1
        if fine:
            self.fine.append(ev)
        if coarse:
            self.coarse.append(ev)

    def wants(self, pkt) -> bool:
        """Cheap pre-test for hot hook sites: would :meth:`packet_event`
        record anything for this packet?  Call sites gate on this before
        building the detail kwargs, so unsampled packets cost one dict
        probe per hop instead of a full recording call."""
        dec = self._decisions.get(pkt.uid)
        if dec is None:
            dec = self._decision(pkt)
        return dec[1] or dec[2]

    def packet_event(self, layer: str, kind: str, where: str, pkt,
                     t_ns: int, **detail) -> None:
        """Record one event for a packet in hand (netsim/TAP hook form)."""
        tid, fine, coarse = self._decision(pkt)
        if fine or coarse:
            self._emit(tid, t_ns, layer, kind, where, detail, fine, coarse)

    # -- packet context (one pipeline traversal) ---------------------------

    def begin_packet(self, pkt, t_ns: int) -> None:
        """Open a traversal context: parser/stage/register/sketch events
        recorded until :meth:`end_packet` belong to this packet without
        threading arguments through every layer."""
        tid, fine, coarse = self._decision(pkt)
        self._ctx_id = tid
        self._ctx_t = t_ns
        self._ctx_fine = fine
        self._ctx_coarse = coarse
        self._ctx_rec = fine or coarse

    def end_packet(self) -> None:
        self._ctx_id = 0
        self._ctx_fine = self._ctx_coarse = self._ctx_rec = False

    def event(self, layer: str, kind: str, where: str, **detail) -> None:
        """Record one event under the active packet context (no-op
        outside a traversal)."""
        if self._ctx_rec:
            self._emit(self._ctx_id, self._ctx_t, layer, kind, where, detail,
                       self._ctx_fine, self._ctx_coarse)

    def writer_map(self, name: str, size: int) -> List[int]:
        """The last-writer list for one register array (cell index →
        trace id, 0 = never written by a traced packet).  Instrumented
        registers cache this at construction so the unsampled-packet
        write hook is a single list store."""
        arr = self._writer_maps.get(name)
        if arr is None:
            arr = self._writer_maps[name] = [0] * size
        elif len(arr) < size:
            arr.extend([0] * (size - len(arr)))
        return arr

    def register_write(self, name: str, index: int, old: int, new: int) -> None:
        """A data-plane register cell changed under the packet context.
        The last-writer map updates for *every* traced write (sampled or
        not) — it is the linkage the control plane resolves later."""
        tid = self._ctx_id
        if not tid:
            return
        self.writer_map(name, index + 1)[index] = tid
        if self._ctx_rec:
            self._emit(tid, self._ctx_t, "register", "write",
                       f"{name}[{index}]", {"old": old, "new": new},
                       self._ctx_fine, self._ctx_coarse)

    # -- control-plane linkage ---------------------------------------------

    def control_read(self, name: str, index: int, t_ns: int, **detail) -> int:
        """The control plane extracted a register slot.  Resolves the
        packet that last wrote the cell and remembers it so the report
        shipped from this extraction inherits the trace id.  Returns the
        resolved trace id (0 = nothing traced wrote the cell)."""
        arr = self._writer_maps.get(name)
        tid = arr[index] if arr is not None and index < len(arr) else 0
        self._last_extract_id = tid
        if tid:
            fine, coarse = self._decide_by_id(tid)
            if fine or coarse:
                self._emit(tid, t_ns, "control-plane", "extract",
                           f"{name}[{index}]", detail, fine, coarse)
        return tid

    def report_id(self) -> int:
        """The trace id a report put now inherits: the active packet
        (digest handlers run inside the traversal that emitted the
        digest) or, failing that, the most recent control read."""
        return self._ctx_id or self._last_extract_id

    def begin_report(self, t_ns: int, trace_ids: Sequence[int]) -> Optional[tuple]:
        """Open a report context around shipping one block of
        measurement records: ``trace_ids[i]`` is the packet behind its
        document ``i`` (0: none).  Returns the context it replaces, for
        :meth:`end_report`."""
        outer, self._report = self._report, (trace_ids, t_ns)
        return outer

    def end_report(self, outer: Optional[tuple] = None) -> None:
        """Close the report context, reopening ``outer`` (what
        :meth:`begin_report` returned)."""
        self._report = outer

    def report_ids(self) -> Optional[Sequence[int]]:
        """The open report context's trace ids (``None`` outside one):
        what a block held for a later delivery keeps."""
        return None if self._report is None else self._report[0]

    def report_events(self, layer: str, kind: str,
                      events: Sequence[Tuple[str, dict]]) -> None:
        """Record one event per document of the report context's block
        (Logstash filters, the archiver's index write): ``events[i]`` is
        document ``i``'s ``(where, detail)``, recorded under its trace
        id.  No-op outside a report, for a document with no traced
        packet behind it, and for a layer that sees a different number
        of documents than the block holds (a filter cut it)."""
        if self._report is None:
            return
        trace_ids, t_ns = self._report
        if len(events) != len(trace_ids):
            return
        for tid, (where, detail) in zip(trace_ids, events):
            if tid:
                fine, coarse = self._decide_by_id(tid)
                if fine or coarse:
                    self._emit(tid, t_ns, layer, kind, where, detail, fine, coarse)

    # -- triggers ----------------------------------------------------------

    def fire(self, reason: str, t_ns: int, **detail) -> Optional[FrozenWindow]:
        """An anomalous event happened.  If ``reason`` is armed, freeze
        the fine window into a dump (bounded by ``max_dumps``)."""
        self.fires.append((reason, t_ns))
        if reason not in self.armed or len(self.dumps) >= self.max_dumps:
            return None
        win = FrozenWindow(reason=reason, t_ns=t_ns,
                           events=tuple(self.fine), detail=detail)
        self.dumps.append(win)
        return win

    # -- reads -------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Both windows merged, deduplicated (a sampled packet matching
        the filter lands in both) and ordered by recording sequence."""
        seen: Set[int] = set()
        out: List[TraceEvent] = []
        for ev in list(self.coarse) + list(self.fine):
            if ev.seq not in seen:
                seen.add(ev.seq)
                out.append(ev)
        out.sort(key=lambda ev: ev.seq)
        return out

    def events_for(self, trace_id: int) -> List[TraceEvent]:
        return [ev for ev in self.events() if ev.trace_id == trace_id]

    def layers_for(self, trace_id: int) -> Set[str]:
        """Which layers one packet's surviving events span — the
        acceptance check for end-to-end linkage."""
        return {ev.layer for ev in self.events_for(trace_id)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProvenanceTracer(ids={len(self._ids)}, "
                f"events={self.events_recorded}, coarse={len(self.coarse)}, "
                f"fine={len(self.fine)}, dumps={len(self.dumps)})")


# -- process-wide switch: the ``hooks.tracer`` slot ---------------------------


def enable(**kwargs) -> ProvenanceTracer:
    """Turn provenance tracing on with a fresh tracer.  Components
    constructed *after* this call bind the tracer; already-built
    components stay dark (same contract as :func:`repro.telemetry.enable`).
    """
    hooks.tracer = ProvenanceTracer(**kwargs)
    return hooks.tracer


def disable() -> None:
    hooks.tracer = None


def active() -> bool:
    return hooks.tracer is not None


def tracer() -> Optional[ProvenanceTracer]:
    """The live tracer, or None when disabled.  Components bind the slot
    once at construction: ``self._trace = hooks.tracer``."""
    return hooks.tracer


def reset() -> None:
    """Tests: drop the tracer (alias of :func:`disable`, named to match
    the telemetry module's lifecycle API)."""
    disable()
