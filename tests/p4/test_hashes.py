"""Hash engines: layouts, determinism, row independence."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import FiveTuple
from repro.p4.hashes import (
    HashEngine,
    crc32_bytes,
    crc32_tuple,
    pack_five_tuple,
)


def test_pack_layout():
    ft = FiveTuple(0x0A000001, 0x0A000002, 0x1234, 0x5678, 6)
    packed = pack_five_tuple(ft)
    assert packed == bytes.fromhex("0a000001" "0a000002" "1234" "5678" "06")


def test_crc32_tuple_matches_zlib():
    ft = FiveTuple(1, 2, 3, 4)
    assert crc32_tuple(ft) == zlib.crc32(pack_five_tuple(ft)) & 0xFFFFFFFF


def test_reversed_tuple_hashes_differently():
    ft = FiveTuple(1, 2, 3, 4)
    assert crc32_tuple(ft) != crc32_tuple(ft.reversed())


def test_engine_bounds():
    eng = HashEngine(1000)
    for i in range(200):
        assert 0 <= eng.index(bytes([i])) < 1000


def test_engine_rejects_bad_width():
    with pytest.raises(ValueError):
        HashEngine(0)


def test_engine_salt_rows_are_independent():
    """Two keys colliding in row 0 must usually NOT collide in row 1
    (this was a real bug: prefix-salted CRC rows collide together)."""
    width = 256
    rows = [HashEngine(width, salt=r) for r in range(3)]
    # Find key pairs that collide in row 0.
    buckets = {}
    collisions = []
    for i in range(4000):
        key = i.to_bytes(4, "big")
        idx = rows[0].index(key)
        if idx in buckets:
            collisions.append((buckets[idx], key))
            if len(collisions) >= 50:
                break
        else:
            buckets[idx] = key
    assert collisions
    still_colliding = sum(
        1 for a, b in collisions if rows[1].index(a) == rows[1].index(b)
    )
    # Independent rows: ~1/width of row-0 collisions survive in row 1.
    assert still_colliding <= len(collisions) // 4


@given(st.binary(min_size=0, max_size=64), st.integers(1, 1 << 20))
def test_property_index_in_range(data, width):
    eng = HashEngine(width, salt=2)
    assert 0 <= eng.index(data) < width


@given(st.binary(min_size=1, max_size=32))
def test_property_crc_functions_stable(data):
    assert crc32_bytes(data) == crc32_bytes(data)
