"""The assembled data-plane program (Fig. 4's 'data plane' component).

:class:`P4Monitor` wires the five stages into a single pipeline in the
order their metadata dependencies require (flow IDs → Algorithm 1 →
flight size → queue-delay pairing → microburst), registers every
register/digest/sketch with a :class:`~repro.p4.runtime.P4Program`, and
exposes :meth:`receive_copy` as the TAP sink.

Ingress-TAP copies drive the per-flow accounting; egress-TAP copies
drive the queue/microburst path — both traverse the same pipeline and
each stage dispatches on ``standard_metadata.ingress_port`` exactly as
the P4 source would.
"""

from __future__ import annotations

from typing import Optional, Union

from repro import telemetry
from repro.netsim.engine import Simulator
from repro.telemetry import hooks
from repro.netsim.packet import Packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.p4.pipeline import P4Pipeline, StandardMetadata
from repro.p4.runtime import P4Program, P4RuntimeClient
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_EGRESS_TAP, PORT_INGRESS_TAP, FlowTableStage
from repro.core.limiter import FlightSizeStage
from repro.core.microburst import MicroburstStage
from repro.core.queue_monitor import QueueMonitorStage
from repro.core.rtt import RttLossStage

#: Read once per copy by the sinks; an enum member read off its class
#: costs several times a module global's lookup.
_INGRESS = TapDirection.INGRESS
_EGRESS = TapDirection.EGRESS


class P4Monitor:
    """The passive measurement switch."""

    def __init__(self, config: Optional[MonitorConfig] = None,
                 sim: Optional[Simulator] = None) -> None:
        self.config = config or MonitorConfig()
        self.config.validate()
        self.sim = sim
        self.program = P4Program("perfsonar_monitor")
        self.copies_ingress = 0
        self.copies_egress = 0
        # Registered before the pipeline's: a snapshot drains the batch
        # buffer (the first read) before any stage tally is read.
        telemetry.reads(self, gauges=[
            ("repro_p4_tap_copies", "TAP mirror copies received by the monitor",
             ("direction",), self._settled_copies),
            ("repro_p4_register_ops", "data-plane register ALU operations",
             ("register",), lambda: self._tallies("register_ops")),
            ("repro_p4_sketch_ops", "count-min sketch operations",
             ("sketch", "op"), lambda: self._tallies("sketch_ops")),
            ("repro_p4_digests", "digest messages emitted/dropped by the data plane",
             ("digest", "outcome"), lambda: self._tallies("digest_msgs")),
        ])
        self.pipeline = P4Pipeline("monitor")

        self.flow_table = FlowTableStage(self.program, self.config)
        self.rtt_loss = RttLossStage(self.program, self.config)
        self.flight = FlightSizeStage(self.program, self.config)
        self.queue = QueueMonitorStage(self.program, self.config)
        self.microburst = MicroburstStage(self.program, self.config)
        self.rate_meter = None
        if self.config.rate_meter_enabled:
            from repro.core.rate_meter import RateMeterStage
            self.rate_meter = RateMeterStage(self.program, self.config)

        for stage in (self.flow_table, self.rtt_loss, self.flight):
            self.pipeline.add_ingress(stage)
        if self.rate_meter is not None:
            self.pipeline.add_ingress(self.rate_meter)
        for stage in (self.queue, self.microburst):
            self.pipeline.add_egress(stage)

        _prof = hooks.profiler
        if _prof is not None:
            self._register_profiler_sources(_prof)

        # Batched hot path, bound at construction.  Only an observer
        # that needs to see each packet on its own keeps the scalar
        # pipeline: the tracer and the rate meter (no kernel twin).
        # Telemetry and the profiler read tallies the kernel keeps exact
        # and take each flush as one batch record
        # (P4Pipeline.account_batch); the fault injector never touches a
        # data-plane operation.  ``batch_buffer`` (the kernel's
        # record intake) doubles as the engagement signal the TAP's
        # fast mirror path keys on.
        self.kernel = None
        self.batch_buffer = None
        if (sim is not None
                and self.config.batched_path
                and self.rate_meter is None
                and hooks.tracer is None):
            from repro.core.batch import BatchKernel
            self.kernel = BatchKernel(self)
            self.batch_buffer = self.kernel.buf
            self._batch_limit = self.kernel.buf_limit
            self._record = self.kernel.record
            self.receive_copy = self._receive_copy_batched
            sim.add_flush_hook(self.flush)

    def _register_profiler_sources(self, prof) -> None:
        """Op-count sources for the PhaseReport, read lazily at report
        time — the register/sketch hot paths keep their plain-int
        tallies untouched (the same reads telemetry takes)."""
        prof.add_source("p4.tap_copies",
                        lambda: sum(self._settled_copies().values()))
        for family in ("register_ops", "sketch_ops", "digest_msgs"):
            prof.add_source("p4." + family,
                            lambda f=family: sum(self._tallies(f).values()))

    def _settled_copies(self) -> dict:
        """TAP copies by direction, after draining the batch buffer: the
        kernel counts copies at flush, with every other tally, so a
        reader that reads this first (sources and collectors run in
        registration order) sees them agree."""
        self.flush()
        return {("ingress",): self.copies_ingress, ("egress",): self.copies_egress}

    def _tallies(self, family: str) -> dict:
        """One :meth:`P4Program.tallies` family, keyed by its labels."""
        return {tuple(labels): n for (f, *labels), n
                in self.program.tallies().items() if f == family}

    # -- TAP sink -------------------------------------------------------------

    def receive_copy(self, copy: MirrorCopy) -> None:
        """Sink signature expected by
        :meth:`repro.netsim.topology.ScienceDMZTopology.attach_tap`."""
        if copy.direction is _INGRESS:
            port = PORT_INGRESS_TAP
            self.copies_ingress += 1
        else:
            port = PORT_EGRESS_TAP
            self.copies_egress += 1
        meta = StandardMetadata(
            ingress_port=port,
            ingress_timestamp_ns=copy.timestamp_ns,
            egress_port_id=copy.egress_port_id,
        )
        self.pipeline.process(copy.pkt, meta, copy.ecn)

    def _receive_copy_batched(self, copy: MirrorCopy) -> None:
        """Batched twin of :meth:`receive_copy`: pack the copy's header
        record now, defer pipeline work (and counting it) to the next
        flush boundary."""
        buf = self.batch_buffer
        # The bool is the port: PORT_EGRESS_TAP is 1, PORT_INGRESS_TAP 0.
        buf += self._record(copy.pkt, copy.direction is _EGRESS,
                            copy.timestamp_ns, copy.lanes)
        if len(buf) >= self._batch_limit:
            self.kernel.flush()

    def flush(self) -> None:
        """Drain any batched copies through the kernel (no-op when the
        scalar path is bound or the buffer is empty)."""
        if self.kernel is not None and self.batch_buffer:
            self.kernel.flush()

    def process_packet(
        self,
        packet: Union[Packet, bytes],
        direction: TapDirection,
        timestamp_ns: int,
        egress_port_id: int = 0,
    ) -> StandardMetadata:
        """Direct scalar injection (tests).  Returns the packet's
        metadata so callers can inspect flow IDs / queue delay."""
        if self.kernel is not None and self.batch_buffer:
            self.kernel.flush()  # keep scalar injection ordered after batched copies
        port = PORT_INGRESS_TAP if direction is TapDirection.INGRESS else PORT_EGRESS_TAP
        meta = StandardMetadata(ingress_port=port, ingress_timestamp_ns=timestamp_ns,
                                egress_port_id=egress_port_id)
        self.pipeline.process(packet, meta)
        return meta

    # -- control-plane attachment ---------------------------------------------

    def runtime(self) -> P4RuntimeClient:
        return P4RuntimeClient(self.program)

    def release_slot(self, slot: int) -> None:
        """Control-plane eviction: free the flow-table slot and zero what
        the other stages keep under the released flow's *own* index
        (its ``slot``), so the next flow to claim it is not compared
        against a dead flow's sequence numbers.  Left alone on purpose:
        ``pkt_loss`` (a flow's regressions stay readable after eviction,
        and untracked flows count there too) and ``rtt`` / ``rtt_count``
        / ``rtt_hist``, which sit under the ACK direction's ID (its
        ``rslot``) and may be another flow's cell."""
        self.flow_table.release_slot(slot)
        for reg in (self.rtt_loss.prev_seq,
                    self.flight.high_seq, self.flight.high_ack,
                    self.flight.flow_rwnd,
                    self.queue.flow_qdelay, self.queue.flow_qdelay_max,
                    self.queue.flow_ce):
            reg.clear(slot)
