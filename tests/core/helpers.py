"""Scripted-packet helpers for data-plane stage tests.

Build a bare P4Monitor and feed it hand-crafted ingress/egress copies,
with ground truth fully known.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.core.config import MonitorConfig
from repro.core.monitor import P4Monitor
from repro.netsim.packet import FiveTuple, Packet, TCPFlags, make_ack_packet, make_data_packet
from repro.netsim.tap import TapDirection
from repro.netsim.units import mbps


def small_monitor(**overrides) -> P4Monitor:
    defaults = dict(
        flow_slots=256,
        eack_table_size=1024,
        queue_stash_size=1024,
        cms_width=512,
        cms_depth=3,
        long_flow_bytes=1000,
        bottleneck_rate_bps=mbps(100),
        buffer_bytes=125_000,  # max queue delay = 10 ms
    )
    defaults.update(overrides)
    return P4Monitor(MonitorConfig(**defaults))


def document_sink(docs: list):
    """A report sink appending every shipped document to ``docs`` (a
    sink receives blocks of runs and a tail every document ends with)."""
    return lambda block: docs.extend(block.documents())


def documents_sha256(store) -> str:
    """sha256 over every archived document with its ``_id`` left out
    (sorted keys, indices in name order): what stays fixed when only the
    numbering of ``_id``s across a block's runs moves.  A pinned digest
    that includes ``_id`` is pinned beside this one."""
    h = hashlib.sha256()
    for index in store.indices:
        for doc in store.search(index):
            doc.pop("_id")
            h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


FT = FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201)
REV = FT.reversed()


class FlowScript:
    """Drives a single bidirectional flow through the monitor."""

    def __init__(self, monitor: P4Monitor, ft: FiveTuple = FT) -> None:
        self.monitor = monitor
        self.ft = ft
        self._ip_id = 0

    def data(self, seq: int, length: int, t_ns: int,
             flags: TCPFlags = TCPFlags.ACK) -> Packet:
        """Inject a data packet (ingress TAP copy)."""
        self._ip_id += 1
        pkt = make_data_packet(self.ft, seq=seq, payload_len=length,
                               flags=flags, ip_id=self._ip_id)
        self.monitor.process_packet(pkt, TapDirection.INGRESS, t_ns)
        return pkt

    def ack(self, ack: int, t_ns: int, window: int = 65535) -> Packet:
        """Inject a pure ACK from the receiver (ingress TAP copy)."""
        pkt = make_ack_packet(self.ft.reversed(), ack=ack, window=window)
        self.monitor.process_packet(pkt, TapDirection.INGRESS, t_ns)
        return pkt

    def transit(self, seq: int, length: int, t_in: int, t_out: int) -> Packet:
        """A data packet crossing the tapped switch: ingress copy at
        ``t_in``, egress copy at ``t_out``."""
        self._ip_id += 1
        pkt = make_data_packet(self.ft, seq=seq, payload_len=length,
                               ip_id=self._ip_id)
        self.monitor.process_packet(pkt, TapDirection.INGRESS, t_in)
        self.monitor.process_packet(pkt, TapDirection.EGRESS, t_out)
        return pkt

    def make_long(self, t_ns: int = 1000) -> None:
        """Push enough bytes that the flow claims a slot."""
        threshold = self.monitor.config.long_flow_bytes
        self.data(1, threshold + 1, t_ns)

    @property
    def flow_id(self) -> int:
        from repro.p4.hashes import crc32_tuple
        return crc32_tuple(self.ft)

    @property
    def rev_flow_id(self) -> int:
        from repro.p4.hashes import crc32_tuple
        return crc32_tuple(self.ft.reversed())

    @property
    def slot(self) -> int:
        return self.flow_id & (self.monitor.config.flow_slots - 1)
