"""The programmable parser.

A P4 parser is a state machine that walks the packet: ethernet → ipv4 →
tcp, extracting header fields.  :class:`HeaderParser` accepts either raw
wire bytes (full fidelity — what a real mirror port delivers) or a
simulator :class:`~repro.netsim.packet.Packet` object (fast path: the
fields are already structured; tests prove both views agree).

Only the fields Algorithm 1 and the monitor use are extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.netsim.packet import (
    ETHERTYPE_IPV4,
    F_FIN,
    F_SYN,
    PROTO_TCP,
    FiveTuple,
    Packet,
)
from repro.telemetry import hooks


@dataclass(frozen=True, slots=True)
class ParsedHeaders:
    """The header view handed to the match-action pipeline."""

    src_ip: int
    dst_ip: int
    proto: int
    ip_total_len: int
    ihl: int
    ip_id: int
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    data_offset: int
    ecn: int = 0

    @property
    def five_tuple(self) -> FiveTuple:
        return FiveTuple(self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto)

    @property
    def payload_len(self) -> int:
        """Derived exactly as Algorithm 1 derives it:
        ``total_len - 4*ihl - 4*data_offset``."""
        return self.ip_total_len - 4 * self.ihl - 4 * self.data_offset

    @property
    def is_tcp(self) -> bool:
        return self.proto == PROTO_TCP

    @property
    def expected_ack(self) -> int:
        """eACK per Algorithm 1 (SYN/FIN each consume a sequence number)."""
        consumed = self.payload_len
        if self.flags & F_SYN:
            consumed += 1
        if self.flags & F_FIN:
            consumed += 1
        return (self.seq + consumed) & 0xFFFFFFFF


class ParserError(ValueError):
    """Raised when a packet cannot be parsed (non-IPv4, truncated...)."""


class HeaderParser:
    """ethernet → ipv4 → tcp extraction with accept/reject semantics."""

    def __init__(self) -> None:
        self.accepted = 0
        self.rejected = 0
        # Provenance events attach to the packet context the pipeline
        # opened (tracer.event is a no-op outside a traversal).
        self._trace = hooks.tracer

    def parse(self, packet: Union[Packet, bytes],
              ecn: Optional[int] = None) -> Optional[ParsedHeaders]:
        """Returns the extracted headers, or None for rejected (non-TCP/
        non-IPv4) packets — a P4 parser would send those to a drop state.
        ``ecn``, when given, is the codepoint the mirrored copy carried:
        a queue may CE-mark the shared ``Packet`` before a delayed copy
        is parsed."""
        try:
            if isinstance(packet, (bytes, bytearray, memoryview)):
                pkt = Packet.from_bytes(bytes(packet))
            else:
                pkt = packet
            if pkt.proto != PROTO_TCP:
                raise ParserError(f"non-TCP protocol {pkt.proto}")
            headers = ParsedHeaders(
                src_ip=pkt.src_ip,
                dst_ip=pkt.dst_ip,
                proto=pkt.proto,
                ip_total_len=pkt.ip_total_len,
                ihl=pkt.ihl,
                ip_id=pkt.ip_id,
                src_port=pkt.src_port,
                dst_port=pkt.dst_port,
                seq=pkt.seq & 0xFFFFFFFF,
                ack=pkt.ack & 0xFFFFFFFF,
                flags=int(pkt.flags),
                window=pkt.window,
                data_offset=pkt.data_offset,
                ecn=pkt.ecn if ecn is None else ecn,
            )
        except (ParserError, ValueError) as exc:
            self.rejected += 1
            if self._trace is not None and self._trace._ctx_rec:
                self._trace.event("p4", "parser-reject", "parser",
                                  reason=str(exc))
            return None
        self.accepted += 1
        if self._trace is not None and self._trace._ctx_rec:
            self._trace.event("p4", "parser-accept", "parser")
        return headers
