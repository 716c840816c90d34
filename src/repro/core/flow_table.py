"""Flow identification and the 2048-slot per-flow register file (§4).

Every packet gets a ``flow_ID = hash(5-tuple)`` and a ``reversed ID``
(source/destination fields swapped).  Payload-carrying flows are pushed
through a count-min sketch; once a flow's byte estimate crosses the
long-flow threshold it claims the register slot :func:`slot_of` names
and the data plane announces it to the control plane with a digest
carrying the flow ID, source/destination addresses and the reversed ID —
exactly the §4 announcement — and both IDs' slots, which every reader
of a per-flow register takes from the announcement.

Slot collisions (a second long flow hashing into an occupied slot) are
counted and the colliding flow is left untracked, the honest behaviour
of a hash-indexed register file.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.netsim.packet import F_FIN, F_RST, FiveTuple
from repro.p4.externs import Digest
from repro.p4.hashes import crc32_tuple
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.sketch import CountMinSketch
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig

PORT_INGRESS_TAP = 0
PORT_EGRESS_TAP = 1


def slot_of(flow_id: int, slots: int) -> int:
    """The cell ``flow_id`` indexes in a ``slots``-cell per-flow register
    file.  The scalar path's only slot rule; the kernel's twin is
    ``hash_lanes``."""
    return flow_id & (slots - 1)


class FlowIdEngine:
    """Computes (flow_ID, reversed_ID, slot, reversed slot); memoised,
    standing in for a line-rate hash unit."""

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self._cache: Dict[tuple, Tuple[int, int, int, int]] = {}

    def ids(self, hdr: ParsedHeaders) -> Tuple[int, int, int, int]:
        key = (hdr.src_ip, hdr.dst_ip, hdr.src_port, hdr.dst_port, hdr.proto)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        ft = FiveTuple(*key)
        fid, rid = crc32_tuple(ft), crc32_tuple(ft.reversed())
        entry = self._cache[key] = (fid, rid, slot_of(fid, self.slots),
                                    slot_of(rid, self.slots))
        return entry


class FlowTableStage(PipelineStage):
    """CMS long-flow detection + slot allocation + byte/packet accounting."""

    name = "flow_table"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        self.config = config
        self.slots = config.flow_slots
        self.ids = FlowIdEngine(self.slots)

        self.cms = program.sketch(
            "long_flow_cms",
            CountMinSketch(width=config.cms_width, depth=config.cms_depth),
        )
        self.flow_key = program.register(RegisterArray("flow_key", self.slots, 32))
        self.flow_src = program.register(RegisterArray("flow_src", self.slots, 32))
        self.flow_dst = program.register(RegisterArray("flow_dst", self.slots, 32))
        self.flow_sport = program.register(RegisterArray("flow_sport", self.slots, 16))
        self.flow_dport = program.register(RegisterArray("flow_dport", self.slots, 16))
        self.flow_bytes = program.register(RegisterArray("flow_bytes", self.slots, 64))
        self.flow_pkts = program.register(RegisterArray("flow_pkts", self.slots, 64))
        self.flow_start = program.register(
            RegisterArray("flow_start", self.slots, config.timestamp_bits)
        )
        self.flow_last = program.register(
            RegisterArray("flow_last", self.slots, config.timestamp_bits)
        )
        self.flow_fin = program.register(RegisterArray("flow_fin", self.slots, 8))

        self.long_flow_digest = program.digest(Digest("long_flow"))
        self.termination_digest = program.digest(Digest("flow_termination"))

        self.slot_collisions = 0

    # -- data plane --------------------------------------------------------------

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        fid, rid, slot, meta.rev_slot = self.ids.ids(hdr)
        meta.flow_id, meta.rev_flow_id, meta.flow_slot = fid, rid, slot
        if meta.ingress_port != PORT_INGRESS_TAP:
            return  # per-flow accounting uses the ingress-TAP copy only

        key = self.flow_key.read(slot)
        if key == 0:
            if hdr.payload_len <= 0 or self.cms.update_tuple(
                    hdr.five_tuple, hdr.payload_len) < self.config.long_flow_bytes:
                return
            self._claim(slot, fid, rid, hdr, meta)
        elif key != fid:
            self.slot_collisions += 1
            return

        self.flow_bytes.add(slot, hdr.ip_total_len)
        self.flow_pkts.add(slot, 1)
        self.flow_last.write(slot, meta.ingress_timestamp_ns)
        if hdr.flags & (F_FIN | F_RST) and not self.flow_fin.read(slot):
            self._terminate(slot, fid, hdr, meta)

    def _claim(self, slot: int, fid: int, rid: int, hdr: ParsedHeaders,
               meta: StandardMetadata) -> None:
        self.flow_key.write(slot, fid)
        self.flow_src.write(slot, hdr.src_ip)
        self.flow_dst.write(slot, hdr.dst_ip)
        self.flow_sport.write(slot, hdr.src_port)
        self.flow_dport.write(slot, hdr.dst_port)
        self.flow_start.write(slot, meta.ingress_timestamp_ns)
        self.flow_fin.write(slot, 0)
        self.long_flow_digest.emit(
            flow_id=fid,
            rev_flow_id=rid,
            slot=slot,
            rev_slot=meta.rev_slot,
            src_ip=hdr.src_ip,
            dst_ip=hdr.dst_ip,
            src_port=hdr.src_port,
            dst_port=hdr.dst_port,
            first_seen_ns=meta.ingress_timestamp_ns,
        )

    def _terminate(self, slot: int, fid: int, hdr: ParsedHeaders,
                   meta: StandardMetadata) -> None:
        self.flow_fin.write(slot, 1)
        self.termination_digest.emit(
            flow_id=fid,
            slot=slot,
            src_ip=hdr.src_ip,
            dst_ip=hdr.dst_ip,
            src_port=hdr.src_port,
            dst_port=hdr.dst_port,
            start_ns=self.flow_start.read(slot),
            end_ns=meta.ingress_timestamp_ns,
            total_bytes=self.flow_bytes.read(slot),
            total_packets=self.flow_pkts.read(slot),
        )

    # -- control-plane helpers ---------------------------------------------------

    def release_slot(self, slot: int) -> None:
        """Free a slot (control-plane eviction of idle flows)."""
        for reg in (
            self.flow_key, self.flow_src, self.flow_dst, self.flow_sport,
            self.flow_dport, self.flow_bytes, self.flow_pkts,
            self.flow_start, self.flow_last, self.flow_fin,
        ):
            reg.clear(slot)
