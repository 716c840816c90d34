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
from dataclasses import dataclass, field
from typing import List, Optional

from repro import telemetry
from repro.p4.parser import HeaderParser, ParsedHeaders
from repro.telemetry import profiling, provenance

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
    flow_slot: int = -1
    is_long_flow: bool = False
    drop: bool = False


class PipelineStage:
    """One control block.  Override :meth:`process`."""

    name = "stage"

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        raise NotImplementedError


class P4Pipeline:
    """Parser + ordered ingress stages + ordered egress stages."""

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self.parser = HeaderParser()
        self.ingress: List[PipelineStage] = []
        self.egress: List[PipelineStage] = []
        self.packets_in = 0
        self.packets_dropped = 0
        # Instrumentation is bound at construction: the winning process()
        # body is bound directly below, so disabled modes cost nothing
        # per packet.
        self._trace = provenance.tracer()
        _prof = profiling.profiler()
        self._prof = _prof if (_prof is not None and _prof.phases) else None
        self._tel_stage_pkts = None
        if telemetry.enabled():
            self._tel_stage_pkts = telemetry.counter(
                "repro_p4_stage_packets_total",
                "packets entering each pipeline stage",
                labels=("pipeline", "stage"))
            self._tel_stage_drops = telemetry.counter(
                "repro_p4_stage_drops_total",
                "packets dropped by each stage (parser rejects included)",
                labels=("pipeline", "stage"))
            self._tel_latency = telemetry.histogram(
                "repro_p4_packet_ns",
                "wall-clock processing time per packet through the pipeline",
                labels=("pipeline",)).labels(name)
            self._tel_parser = self._tel_stage_pkts.labels(name, "parser")
            self._tel_stage_cells: List = []
        # Direct-body binding: process() IS the plain body; when
        # instrumentation is on, the winning twin shadows it as an
        # instance attribute.  Disabled thus pays zero per-packet
        # guards and keeps plain class dispatch.  Tracing binds the
        # per-packet dynamic dispatcher (its uid check decides traced
        # vs untraced), and subclasses overriding process() keep
        # their override.
        if self._prof is not None:
            self._proc_cell = self._prof.cell("p4.process")
            self._prof_inner = (self._process_instrumented
                                if self._tel_stage_pkts is not None
                                else self._process_plain)
        if self._prof is not None:
            untraced = (self._process_profiled_stage
                        if self._prof.detail_stage
                        else self._process_profiled_block)
        elif self._tel_stage_pkts is not None:
            untraced = self._process_instrumented
        else:
            untraced = None  # plain body: keep class dispatch
        self._untraced = untraced if untraced is not None else self._process_plain
        if type(self).process is P4Pipeline.process:
            if self._trace is not None:
                self.process = self._process_dispatch
            elif untraced is not None:
                self.process = untraced

    def _tel_stage(self, stage: PipelineStage):
        cell = self._tel_stage_pkts.labels(self.name, stage.name)
        self._tel_stage_cells.append(cell)
        return cell

    def add_ingress(self, stage: PipelineStage) -> None:
        self.ingress.append(stage)
        if self._tel_stage_pkts is not None:
            self._tel_stage(stage)

    def add_egress(self, stage: PipelineStage) -> None:
        self.egress.append(stage)
        if self._tel_stage_pkts is not None:
            self._tel_stage(stage)

    def process(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Run one packet through parse → ingress → egress.

        Returns the parsed headers (None if the parser rejected or a
        stage dropped it).  This is the uninstrumented body: when any
        instrumentation is on, construction shadows it with the right
        twin as an instance attribute, so the disabled hot path is
        byte-for-byte this method with plain class dispatch.
        """
        self.packets_in += 1
        hdr = self.parser.parse(packet)
        if hdr is None:
            self.packets_dropped += 1
            return None
        for stage in self.ingress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        for stage in self.egress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        return hdr

    _process_plain = process  # explicit-dispatch alias for the twins

    def _process_dispatch(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Per-packet dispatch for tracing mode (bound only while the
        tracer is live): traced packets carry a uid, the rest take the
        untraced twin chosen at construction."""
        if getattr(packet, "uid", None) is not None:
            return self._process_traced(packet, meta)
        return self._untraced(packet, meta)

    def _process_instrumented(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Telemetry twin of :meth:`process`: per-stage packet/drop
        counters plus a wall-clock latency histogram per packet."""
        t0 = time.perf_counter_ns()
        self.packets_in += 1
        self._tel_parser.inc()
        hdr = self.parser.parse(packet)
        if hdr is None:
            self.packets_dropped += 1
            self._tel_stage_drops.labels(self.name, "parser").inc()
            self._tel_latency.observe(time.perf_counter_ns() - t0)
            return None
        cells = self._tel_stage_cells
        i = 0
        for block in (self.ingress, self.egress):
            for stage in block:
                cells[i].inc()
                i += 1
                stage.process(hdr, meta)
                if meta.drop:
                    self.packets_dropped += 1
                    self._tel_stage_drops.labels(self.name, stage.name).inc()
                    self._tel_latency.observe(time.perf_counter_ns() - t0)
                    return None
        self._tel_latency.observe(time.perf_counter_ns() - t0)
        return hdr

    def account_batch(self, copies: int, accepted: int, rejected: int,
                      t0_ns: int, t1_ns: int) -> None:
        """One batched-kernel flush's worth of :meth:`process`
        bookkeeping: ``copies`` went through the parser, which rejected
        ``rejected`` of them; the ``accepted`` rest ran every stage (no
        stage drops); the whole flush took wall ``t0_ns..t1_ns``.

        Feeds the cells :meth:`_process_instrumented` feeds per packet.
        ``repro_p4_packet_ns`` gets the flush's per-copy mean once per
        copy, so its count still equals copies processed.
        """
        self.packets_in += copies
        self.packets_dropped += rejected
        if self._tel_stage_pkts is None:
            return
        self._tel_parser.inc(copies)
        if rejected:
            self._tel_stage_drops.labels(self.name, "parser").inc(rejected)
        for cell in self._tel_stage_cells:
            cell.inc(accepted)
        self._tel_latency.observe_n((t1_ns - t0_ns) / copies, copies)

    def _process_profiled(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Profiling twin of :meth:`process`: ``block`` detail charges
        one ``p4.process`` cell per packet (the ≤10 % always-on budget),
        ``stage`` detail opens nested parser and per-stage frames
        (diagnosis mode) — while still feeding the telemetry counters
        when both are enabled."""
        if self._prof.detail_stage:
            return self._process_profiled_stage(packet, meta)
        return self._process_profiled_block(packet, meta)

    def _process_profiled_block(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        # Block detail never nests frames inside p4.process, and packets
        # only flow under tap/switch engine events (never inside an open
        # cp.extract/archiver frame), so the frame stack is skipped:
        # two clock reads into the cached cell, self == cum, and
        # nested_ns feeds the engine loop's self-time subtraction.
        t0 = _pcn()
        try:
            return self._prof_inner(packet, meta)
        finally:
            dt = _pcn() - t0
            cell = self._proc_cell
            cell[0] += dt
            cell[1] += dt
            cell[2] += 1
            self._prof.nested_ns += dt

    def _process_profiled_stage(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        prof = self._prof
        tel = self._tel_stage_pkts is not None
        t0 = time.perf_counter_ns() if tel else 0
        prof.begin("p4.process")
        try:
            self.packets_in += 1
            if tel:
                self._tel_parser.inc()
            prof.begin("p4.parser")
            try:
                hdr = self.parser.parse(packet)
            finally:
                prof.end()
            if hdr is None:
                self.packets_dropped += 1
                if tel:
                    self._tel_stage_drops.labels(self.name, "parser").inc()
                    self._tel_latency.observe(time.perf_counter_ns() - t0)
                return None
            i = 0
            for block in (self.ingress, self.egress):
                for stage in block:
                    if tel:
                        self._tel_stage_cells[i].inc()
                    i += 1
                    prof.begin("p4.stage/" + stage.name)
                    try:
                        stage.process(hdr, meta)
                    finally:
                        prof.end()
                    if meta.drop:
                        self.packets_dropped += 1
                        if tel:
                            self._tel_stage_drops.labels(self.name, stage.name).inc()
                            self._tel_latency.observe(time.perf_counter_ns() - t0)
                        return None
            if tel:
                self._tel_latency.observe(time.perf_counter_ns() - t0)
            return hdr
        finally:
            prof.end()

    def _process_traced(self, packet, meta: StandardMetadata) -> Optional[ParsedHeaders]:
        """Provenance twin of :meth:`process`: opens the packet context so
        the parser, every stage, and the registers/sketches they touch
        attribute their events to this packet — while still feeding the
        telemetry counters when both subsystems are enabled."""
        trace = self._trace
        tel = self._tel_stage_pkts is not None
        t0 = time.perf_counter_ns() if tel else 0
        trace.begin_packet(packet, meta.ingress_timestamp_ns)
        # Unsampled packets skip the per-stage event calls entirely — the
        # coarse-only overhead budget in benchmarks/test_trace_overhead.py
        # rides on this flag.
        rec = trace._ctx_rec
        try:
            self.packets_in += 1
            if tel:
                self._tel_parser.inc()
            hdr = self.parser.parse(packet)
            if hdr is None:
                self.packets_dropped += 1
                if tel:
                    self._tel_stage_drops.labels(self.name, "parser").inc()
                    self._tel_latency.observe(time.perf_counter_ns() - t0)
                return None
            i = 0
            for block in (self.ingress, self.egress):
                for stage in block:
                    if tel:
                        self._tel_stage_cells[i].inc()
                    i += 1
                    if rec:
                        trace.event("p4", "stage", stage.name)
                    stage.process(hdr, meta)
                    if meta.drop:
                        self.packets_dropped += 1
                        if rec:
                            trace.event("p4", "stage-drop", stage.name)
                        if tel:
                            self._tel_stage_drops.labels(self.name, stage.name).inc()
                            self._tel_latency.observe(time.perf_counter_ns() - t0)
                        return None
            if tel:
                self._tel_latency.observe(time.perf_counter_ns() - t0)
            return hdr
        finally:
            trace.end_packet()
