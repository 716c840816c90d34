"""Hash engines.

Tofino exposes CRC-based hash units; flow IDs in the paper are
``hash(5-tuple)`` and the *reversed* flow ID is the same hash with source
and destination fields swapped (§4).  We provide CRC32 (via zlib) and a
packing helper so the same byte layout feeds every hash — exactly like
laying out a P4 ``hash(..., {fields})`` call.
"""

from __future__ import annotations

import struct
import zlib

from repro.netsim.packet import FiveTuple

_FIVE_TUPLE_FMT = struct.Struct("!IIHHB")


def pack_five_tuple(ft: FiveTuple) -> bytes:
    """Canonical byte layout: src ip, dst ip, src port, dst port, proto."""
    return _FIVE_TUPLE_FMT.pack(ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port, ft.proto)


def crc32_tuple(ft: FiveTuple) -> int:
    """CRC32 of the canonical 5-tuple layout (the paper's flow ID hash)."""
    return zlib.crc32(pack_five_tuple(ft)) & 0xFFFFFFFF


def crc32_bytes(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _mix32(h: int) -> int:
    """murmur3 finalizer: a non-linear 32-bit bijection."""
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class HashEngine:
    """A named hash unit producing indices in ``[0, width)``.

    ``salt = 0`` is the plain CRC index (what a single P4 hash call
    computes).  ``salt != 0`` selects an independent row for multi-row
    structures (count-min sketch): the CRC is passed through a
    salt-keyed multiplicative (murmur-style) finalizer.  The
    multiplication matters — every CRC is GF(2)-linear, so deriving rows
    from CRCs alone (prefix salts, or even two different polynomials
    combined linearly) leaves key pairs whose row-collisions are
    perfectly correlated, degenerating the sketch to depth 1.  Hardware
    escapes this by physically distinct polynomials over wider state; we
    guarantee independence with the non-linear mix.
    """

    def __init__(self, width: int, salt: int = 0) -> None:
        if width <= 0:
            raise ValueError("hash width must be positive")
        self.width = width
        self.salt = salt

    def index(self, data: bytes) -> int:
        h1 = crc32_bytes(data)
        if self.salt == 0:
            return h1 % self.width
        return _mix32(h1 ^ (self.salt * 0x9E3779B9)) % self.width
