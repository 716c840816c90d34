"""Packet model: Ethernet / IPv4 / TCP headers with real wire-format
serialisation.

Inside the simulator packets are plain attribute objects (``__slots__``,
no per-hop allocation).  The P4 behavioural parser (:mod:`repro.p4.parser`)
can consume either the object directly (fast path, what the benchmarks
use) or the exact on-the-wire bytes produced by :meth:`Packet.to_bytes`
(used by the parser tests to prove the two views agree bit-for-bit).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntFlag
from functools import lru_cache
from typing import Optional

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

ETH_HEADER_LEN = 14
IPV4_MIN_IHL = 5  # 32-bit words
TCP_MIN_DATA_OFFSET = 5  # 32-bit words


class TCPFlags(IntFlag):
    """TCP flag bits, as laid out in the wire header."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


# Plain-int mirrors of the flag bits for hot-path masking: ``flags & F_ACK``
# stays on int.__and__, where ``flags & TCPFlags.ACK`` would bounce through
# IntFlag.__rand__'s enum machinery on every single test.
F_FIN = 0x01
F_SYN = 0x02
F_RST = 0x04
F_PSH = 0x08
F_ACK = 0x10
F_URG = 0x20
F_ECE = 0x40
F_CWR = 0x80


def ip_to_int(dotted: str) -> int:
    """'10.0.0.1' -> 0x0A000001."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {dotted!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=4096)
def int_to_ip(value: int) -> str:
    """0x0A000001 -> '10.0.0.1'.  Memoised (bounded): report building
    formats the same few endpoint addresses once per archived document."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value:#x}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The flow key used throughout the paper (§3.2)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP

    def reversed(self) -> "FiveTuple":
        """Key of the opposite direction; used for the *reversed flow ID*
        that matches ACKs back to the data direction (§4)."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def __str__(self) -> str:
        return (
            f"{int_to_ip(self.src_ip)}:{self.src_port}->"
            f"{int_to_ip(self.dst_ip)}:{self.dst_port}/{self.proto}"
        )


_packet_uid = 0


def _next_uid() -> int:
    global _packet_uid
    _packet_uid += 1
    return _packet_uid


class Packet:
    """A TCP/IPv4 packet.  Payload is represented by its length only; the
    simulator never materialises payload bytes (the monitor does not look
    at them either — neither does the Tofino program in the paper).
    """

    __slots__ = (
        "uid",
        "src_ip",
        "dst_ip",
        "proto",
        "ip_id",
        "ttl",
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "payload_len",
        "_tcp_options_len",
        "data_offset",
        "ip_total_len",
        "wire_len",
        "sack",
        "ecn",
        "_int_stack",
        "created_ns",
    )

    # ECN codepoints (RFC 3168), carried in the low 2 bits of the IPv4
    # DSCP/ECN byte.
    ECN_NOT_ECT = 0
    ECN_ECT1 = 1
    ECN_ECT0 = 2
    ECN_CE = 3

    def __init__(
        self,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TCPFlags = TCPFlags.ACK,
        window: int = 65535,
        payload_len: int = 0,
        proto: int = PROTO_TCP,
        ip_id: int = 0,
        ttl: int = 64,
        tcp_options_len: int = 0,
        sack: "Optional[tuple]" = None,
        ecn: int = 0,
        created_ns: int = 0,
    ) -> None:
        if not 0 <= ecn <= 3:
            raise ValueError("ECN codepoint must be 0..3")
        if sack:
            if len(sack) > 3:
                raise ValueError("at most 3 SACK blocks fit the option space")
            # kind(1) + len(1) + 8 bytes per block, padded to 32-bit words.
            needed = 2 + 8 * len(sack)
            tcp_options_len = max(tcp_options_len, -(-needed // 4) * 4)
        if tcp_options_len % 4:
            raise ValueError("TCP options length must be a multiple of 4")
        self.uid = _next_uid()
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.proto = proto
        self.ip_id = ip_id & 0xFFFF
        self.ttl = ttl
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        # Stored as a plain int: every hot-path `flags & TCPFlags.X` then
        # runs int.__and__ instead of IntFlag's enum machinery.
        self.flags = int(flags)
        self.window = window
        self.payload_len = payload_len
        self._tcp_options_len = tcp_options_len
        # Derived wire lengths, cached (headers never change size after
        # construction except through the tcp_options_len setter).
        self.data_offset = TCP_MIN_DATA_OFFSET + tcp_options_len // 4
        self.ip_total_len = 4 * IPV4_MIN_IHL + 4 * self.data_offset + payload_len
        # Bytes occupying the link: Ethernet header + IP total length.
        # Cached slot, not a property — the port/link hot path reads it
        # several times per hop.  Recomputed by the tcp_options_len
        # setter and by the INT transit hop when a telemetry stack rides
        # between the headers (preamble/IFG/FCS fold into link rates).
        self.wire_len = ETH_HEADER_LEN + self.ip_total_len
        self.sack = tuple(sack) if sack else None
        self.ecn = ecn
        # In-band telemetry metadata stack (INT-MD over L2, one entry per
        # transit hop).  None when INT is not in use; see repro.p4.int.
        # Direct slot store: the property setter would recompute the
        # just-cached wire_len for nothing on every construction.
        self._int_stack = None
        self.created_ns = created_ns

    @classmethod
    def tcp_fast(
        cls,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        window: int,
        payload_len: int,
        ip_id: int,
        created_ns: int,
    ) -> "Packet":
        """Construction fast path for the TCP stack's fixed header shape
        (no options, no SACK, ECN/ttl defaults).  Skips the kwarg
        machinery and option validation of ``__init__`` — the single
        hottest allocation in the simulator.  Fields that grow after
        construction (SACK blocks, ECN, INT) go through their normal
        setters on the returned packet."""
        global _packet_uid
        _packet_uid += 1
        p = object.__new__(cls)
        p.uid = _packet_uid
        p.src_ip = src_ip
        p.dst_ip = dst_ip
        p.proto = PROTO_TCP
        p.ip_id = ip_id & 0xFFFF
        p.ttl = 64
        p.src_port = src_port
        p.dst_port = dst_port
        p.seq = seq & 0xFFFFFFFF
        p.ack = ack & 0xFFFFFFFF
        p.flags = flags
        p.window = window
        p.payload_len = payload_len
        p._tcp_options_len = 0
        p.data_offset = TCP_MIN_DATA_OFFSET
        p.ip_total_len = 40 + payload_len
        p.wire_len = ETH_HEADER_LEN + 40 + payload_len
        p.sack = None
        p.ecn = 0
        p._int_stack = None
        p.created_ns = created_ns
        return p

    # -- derived lengths (wire semantics) -----------------------------------

    @property
    def ihl(self) -> int:
        """IPv4 header length in 32-bit words (no IP options used)."""
        return IPV4_MIN_IHL

    @property
    def tcp_options_len(self) -> int:
        """TCP options bytes.  Setting this (the SACK path does, after
        construction) recomputes the cached ``data_offset`` and
        ``ip_total_len`` wire lengths."""
        return self._tcp_options_len

    @tcp_options_len.setter
    def tcp_options_len(self, value: int) -> None:
        if value % 4:
            raise ValueError("TCP options length must be a multiple of 4")
        self._tcp_options_len = value
        self.data_offset = TCP_MIN_DATA_OFFSET + value // 4
        self.ip_total_len = (4 * IPV4_MIN_IHL + 4 * self.data_offset
                             + self.payload_len)
        self.recompute_wire_len()

    #: On-wire bytes per INT metadata hop entry (INT-MD: 12 B of metadata
    #: amortising the 12 B shim/MD headers across a stack).
    INT_HOP_BYTES = 12

    def recompute_wire_len(self) -> None:
        """Refresh the cached ``wire_len`` after a header-size mutation
        (options resize, INT stack push/strip)."""
        base = ETH_HEADER_LEN + self.ip_total_len
        stack = self._int_stack
        if stack:
            base += self.INT_HOP_BYTES * len(stack)
        self.wire_len = base

    @property
    def int_stack(self) -> "Optional[list]":
        return self._int_stack

    @int_stack.setter
    def int_stack(self, value: "Optional[list]") -> None:
        # Wrap assigned lists so in-place mutation (the transit hop's
        # append) keeps the cached wire_len honest.
        self._int_stack = _IntStack(self, value) if value is not None else None
        self.recompute_wire_len()

    @property
    def five_tuple(self) -> FiveTuple:
        return FiveTuple(self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.proto)

    @property
    def expected_ack(self) -> int:
        """The eACK of Algorithm 1: sequence number the receiver will
        acknowledge once this segment (and everything before it) arrives.

        SYN and FIN consume one sequence number each.
        """
        consumed = self.payload_len
        if self.flags & F_SYN:
            consumed += 1
        if self.flags & F_FIN:
            consumed += 1
        return (self.seq + consumed) & 0xFFFFFFFF

    # -- wire format ---------------------------------------------------------

    def to_bytes(self, src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
                 dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02") -> bytes:
        """Serialise headers to the exact wire format (payload zero-filled).

        Checksums are computed for the IPv4 header; the TCP checksum is
        left zero (the monitor never validates it, and neither does a
        mirror port).
        """
        eth = dst_mac + src_mac + struct.pack("!H", ETHERTYPE_IPV4)
        ver_ihl = (4 << 4) | self.ihl
        ip_wo_cksum = struct.pack(
            "!BBHHHBBH4s4s",
            ver_ihl,
            self.ecn & 0x03,  # DSCP zero; ECN in the low bits
            self.ip_total_len,
            self.ip_id,
            0,  # flags/fragment offset
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            struct.pack("!I", self.src_ip),
            struct.pack("!I", self.dst_ip),
        )
        cksum = ipv4_checksum(ip_wo_cksum)
        ip = ip_wo_cksum[:10] + struct.pack("!H", cksum) + ip_wo_cksum[12:]
        offset_flags = (self.data_offset << 12) | int(self.flags)
        # The wire field is 16 bits; larger in-simulation windows stand in
        # for window scaling (the scale option is not serialised).
        tcp = struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            min(self.window, 0xFFFF),
            0,  # checksum (not validated on a mirror path)
            0,  # urgent pointer
        ) + self._options_bytes()
        return eth + ip + tcp + b"\x00" * self.payload_len

    def _options_bytes(self) -> bytes:
        """Real TCP option encoding: SACK (kind 5) padded with NOPs."""
        if not self.sack:
            return b"\x01" * self.tcp_options_len  # NOP padding only
        body = struct.pack("!BB", 5, 2 + 8 * len(self.sack))
        for start, end in self.sack:
            body += struct.pack("!II", start & 0xFFFFFFFF, end & 0xFFFFFFFF)
        if len(body) > self.tcp_options_len:
            raise ValueError("SACK blocks exceed the reserved option space")
        return body + b"\x01" * (self.tcp_options_len - len(body))

    @classmethod
    def from_bytes(cls, data: bytes, created_ns: int = 0) -> "Packet":
        """Parse wire bytes back into a Packet (inverse of :meth:`to_bytes`)."""
        if len(data) < ETH_HEADER_LEN + 20 + 20:
            raise ValueError(f"truncated packet: {len(data)} bytes")
        (ethertype,) = struct.unpack_from("!H", data, 12)
        if ethertype != ETHERTYPE_IPV4:
            raise ValueError(f"not IPv4: ethertype={ethertype:#06x}")
        off = ETH_HEADER_LEN
        ver_ihl, dscp_ecn, total_len, ip_id, _frag, ttl, proto, _ck = struct.unpack_from(
            "!BBHHHBBH", data, off
        )
        ihl = ver_ihl & 0x0F
        (src_ip,) = struct.unpack_from("!I", data, off + 12)
        (dst_ip,) = struct.unpack_from("!I", data, off + 16)
        toff = off + 4 * ihl
        src_port, dst_port, seq, ack, offset_flags, window, _ck2, _urg = struct.unpack_from(
            "!HHIIHHHH", data, toff
        )
        data_offset = offset_flags >> 12
        flags = TCPFlags(offset_flags & 0x01FF)
        payload_len = total_len - 4 * ihl - 4 * data_offset
        options_len = 4 * (data_offset - TCP_MIN_DATA_OFFSET)
        sack = _parse_sack(data[toff + 20 : toff + 20 + options_len])
        return cls(
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            payload_len=payload_len,
            proto=proto,
            ip_id=ip_id,
            ttl=ttl,
            tcp_options_len=options_len,
            sack=sack,
            ecn=dscp_ecn & 0x03,
            created_ns=created_ns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.five_tuple}, seq={self.seq}, ack={self.ack}, "
            f"flags={TCPFlags(self.flags)!r}, len={self.payload_len})"
        )


class _IntStack(list):
    """INT hop-entry list bound to its packet: size-changing mutations
    refresh the packet's cached ``wire_len`` (each entry occupies
    :attr:`Packet.INT_HOP_BYTES` on the wire)."""

    __slots__ = ("_pkt",)

    def __init__(self, pkt: Packet, items=()) -> None:
        list.__init__(self, items)
        self._pkt = pkt

    def append(self, entry) -> None:
        list.append(self, entry)
        self._pkt.wire_len += Packet.INT_HOP_BYTES

    def extend(self, entries) -> None:
        before = len(self)
        list.extend(self, entries)
        self._pkt.wire_len += Packet.INT_HOP_BYTES * (len(self) - before)

    def pop(self, index: int = -1):
        entry = list.pop(self, index)
        self._pkt.wire_len -= Packet.INT_HOP_BYTES
        return entry

    def clear(self) -> None:
        self._pkt.wire_len -= Packet.INT_HOP_BYTES * len(self)
        list.clear(self)


def _parse_sack(options: bytes) -> Optional[tuple]:
    """Scan a TCP option block for a SACK (kind 5) option."""
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == 0:  # end of options
            break
        if kind == 1:  # NOP
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if length < 2:
            break
        if kind == 5:
            nblocks = (length - 2) // 8
            blocks = []
            for b in range(nblocks):
                start, end = struct.unpack_from("!II", options, i + 2 + 8 * b)
                blocks.append((start, end))
            return tuple(blocks)
        i += length
    return None


def ipv4_checksum(header: bytes) -> int:
    """Standard 16-bit one's-complement checksum over the IPv4 header."""
    if len(header) % 2:
        header += b"\x00"
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def make_data_packet(
    ft: FiveTuple,
    seq: int,
    payload_len: int,
    ack: int = 0,
    flags: TCPFlags = TCPFlags.ACK,
    window: int = 65535,
    ip_id: int = 0,
    created_ns: int = 0,
) -> Packet:
    """Convenience constructor used by tests and workload generators."""
    return Packet(
        src_ip=ft.src_ip,
        dst_ip=ft.dst_ip,
        src_port=ft.src_port,
        dst_port=ft.dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        payload_len=payload_len,
        ip_id=ip_id,
        created_ns=created_ns,
    )


def make_ack_packet(
    ft: FiveTuple,
    ack: int,
    seq: int = 0,
    window: int = 65535,
    created_ns: int = 0,
) -> Packet:
    """Pure ACK in the direction ``ft`` (i.e. from the data receiver)."""
    return Packet(
        src_ip=ft.src_ip,
        dst_ip=ft.dst_ip,
        src_port=ft.src_port,
        dst_port=ft.dst_port,
        seq=seq,
        ack=ack,
        flags=TCPFlags.ACK,
        window=window,
        payload_len=0,
        created_ns=created_ns,
    )
