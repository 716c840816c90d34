"""Pipeline scaffolding: standard metadata and the ingress/egress block
structure of a P4 target (§2.3: parser → ingress → egress → deparser).

The monitor program (:mod:`repro.core.monitor`) subclasses
:class:`PipelineStage` for each logical table/ALU group; the
:class:`P4Pipeline` runs them in order, short-circuiting when a stage
drops the packet.  This keeps each concern (flow tracking, RTT, queue,
microburst, limiter) in its own testable unit, mirroring how the P4
source would be organised into control blocks.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional

from repro import telemetry
from repro.p4.parser import HeaderParser, ParsedHeaders
from repro.telemetry import hooks

_pcn = time.perf_counter_ns


@dataclass
class StandardMetadata:
    """Per-packet intrinsic metadata, as a P4 target provides it."""

    ingress_port: int = 0
    ingress_timestamp_ns: int = 0
    # For egress-TAP copies: which tapped queue the packet left through.
    egress_port_id: int = 0
    # Populated by the queue-monitor stage for egress-TAP copies: the time
    # the packet spent inside the tapped legacy switch.
    queue_delay_ns: int = -1
    # Monitor-specific scratch shared between stages (P4 user metadata).
    flow_id: int = -1
    rev_flow_id: int = -1
    # The flow table sets both IDs' register cells on every copy.
    flow_slot: int = -1
    rev_slot: int = -1
    drop: bool = False


class PipelineStage:
    """One control block.  Override :meth:`process`."""

    name = "stage"

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        raise NotImplementedError


class P4Pipeline:
    """Parser + ordered ingress stages + ordered egress stages.

    There are two traversal bodies.  :meth:`process` is the plain one,
    reached by class dispatch when nothing times or traces the pipeline
    (telemetry only reads its tallies).  When a phase profiler or a
    tracer is live at construction, :meth:`_process_observed` shadows it
    as an instance attribute; what that one body records is decided by
    two construction-time flags.  A batched monitor runs neither per
    packet: the kernel reports each flush through :meth:`account_batch`.
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self.parser = HeaderParser()
        self.ingress: List[PipelineStage] = []
        self.egress: List[PipelineStage] = []
        self.packets_in = 0
        #: Drops by site: "parser" or the dropping stage's name.
        self.drops: Counter = Counter()
        # The observer flags, read once here.  ``_trace`` also needs a
        # per-packet guard (only packets with a uid are traced).  The
        # profiler shows up as its cached ``p4.process`` cell, charged
        # once per packet here and once per flush from account_batch.
        self._trace = hooks.tracer
        self._prof = hooks.phases()
        self._proc_cell = (self._prof.cell("p4.process")
                           if self._prof is not None else None)
        telemetry.reads(self, counters=[
            ("repro_p4_stage_packets_total", "packets entering each pipeline stage",
             ("pipeline", "stage"), self._stage_packets),
            ("repro_p4_stage_drops_total",
             "packets dropped by each stage (parser rejects included)",
             ("pipeline", "stage"),
             lambda: {(name, site): n for site, n in self.drops.items()}),
        ])
        # Subclasses overriding process() keep their override.
        if ((self._trace is not None or self._prof is not None)
                and type(self).process is P4Pipeline.process):
            self.process = self._process_observed

    @property
    def packets_dropped(self) -> int:
        return sum(self.drops.values())

    def _stage_packets(self) -> dict:
        """Packets into each site (the parser, then the stages in order):
        the intake less what the sites before it dropped."""
        entered, out = self.packets_in, {}
        for site in ("parser", *(s.name for s in chain(self.ingress, self.egress))):
            out[self.name, site] = entered
            entered -= self.drops[site]
        return out

    def add_ingress(self, stage: PipelineStage) -> None:
        self.ingress.append(stage)

    def add_egress(self, stage: PipelineStage) -> None:
        self.egress.append(stage)

    def process(self, packet, meta: StandardMetadata,
                ecn: Optional[int] = None) -> Optional[ParsedHeaders]:
        """Run one packet through parse → ingress → egress.

        Returns the parsed headers (None if the parser rejected or a
        stage dropped it).  ``ecn`` is the copy's codepoint at its TAP
        instant (default: the packet's, now).  This is the unobserved
        body and the reference the equivalence harness compares
        against: with every observer off it runs as written, with plain
        class dispatch (tests/p4/test_pipeline_binding.py).
        """
        self.packets_in += 1
        hdr = self.parser.parse(packet, ecn)
        if hdr is None:
            self.drops["parser"] += 1
            return None
        for stage in self.ingress:
            stage.process(hdr, meta)
            if meta.drop:
                self.drops[stage.name] += 1
                return None
        for stage in self.egress:
            stage.process(hdr, meta)
            if meta.drop:
                self.drops[stage.name] += 1
                return None
        return hdr

    def _process_observed(self, packet, meta: StandardMetadata,
                          ecn: Optional[int] = None) -> Optional[ParsedHeaders]:
        """:meth:`process` with the live observers attached, alone or
        together: the profiler's ``p4.process`` cell is charged once per
        packet; the tracer opens the packet context so the parser, every
        stage and the registers they touch attribute their events to
        this packet.
        """
        cell = self._proc_cell
        trace = self._trace
        if trace is not None and getattr(packet, "uid", None) is None:
            trace = None  # an untraced packet under a live tracer
        t0 = _pcn() if cell is not None else 0
        rec = False
        if trace is not None:
            trace.begin_packet(packet, meta.ingress_timestamp_ns)
            # Unsampled packets skip the per-stage event calls entirely —
            # the coarse-only overhead budget in
            # benchmarks/test_trace_overhead.py rides on this flag.
            rec = trace._ctx_rec
        try:
            self.packets_in += 1
            hdr = self.parser.parse(packet, ecn)
            dropped_by = "parser" if hdr is None else None
            if hdr is not None:
                for stage in chain(self.ingress, self.egress):
                    if rec:
                        trace.event("p4", "stage", stage.name)
                    stage.process(hdr, meta)
                    if meta.drop:
                        if rec:
                            trace.event("p4", "stage-drop", stage.name)
                        dropped_by = stage.name
                        hdr = None
                        break
            if dropped_by is not None:
                self.drops[dropped_by] += 1
            return hdr
        finally:
            if trace is not None:
                trace.end_packet()
            if cell is not None:
                self._prof.charge(cell, _pcn() - t0, 1)

    def account_batch(self, copies: int, rejected: int,
                      t0_ns: int, t1_ns: int) -> None:
        """One batched-kernel flush's worth of :meth:`process`
        bookkeeping: ``copies`` went through the parser, which rejected
        ``rejected`` of them; the rest ran every stage (no stage drops);
        the whole flush took wall ``t0_ns..t1_ns``.

        Feeds the tallies :meth:`process` keeps per packet.  The
        profiler's ``p4.process`` cell gets the flush's wall time with
        ``copies`` events, so its count still equals copies processed.
        """
        self.packets_in += copies
        if rejected:
            self.drops["parser"] += rejected
        if self._proc_cell is not None:
            self._prof.charge(self._proc_cell, t1_ns - t0_ns, copies)
