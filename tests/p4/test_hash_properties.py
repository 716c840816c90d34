"""Hash-unit properties the measurement plane depends on.

Flow IDs must be *stable across runs* (a flow's register slot, sketch
cells and eACK signatures are all derived from them — any drift breaks
replay determinism and the validation corpus), and slot indices must
spread evenly enough that the 2048-slot register file behaves like a
hash table rather than a hot bucket.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.netsim.packet import FiveTuple
from repro.p4.hashes import HashEngine, crc32_bytes, crc32_tuple, pack_five_tuple

# Golden values pin the exact algorithms: identical in every run, every
# process, every platform.  If one of these moves, every recorded
# artifact and register-state digest silently stops being comparable.
_GOLDEN_TUPLE = FiveTuple(0x0A000001, 0x0A000002, 5201, 49152, 6)


def test_crc32_tuple_stable_across_runs():
    assert crc32_tuple(_GOLDEN_TUPLE) == 0x9C120AFF


def test_crc32_tuple_reversed_stable_across_runs():
    assert crc32_tuple(_GOLDEN_TUPLE.reversed()) == 0xD75583F5


def test_crc32_bytes_golden():
    assert crc32_bytes(b"123456789") == 0xCBF43926  # CRC-32 check value


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
       st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
@settings(max_examples=80, deadline=None)
def test_property_tuple_hash_is_pure(src_ip, dst_ip, sport, dport):
    """Two equal tuples built independently hash identically, and the
    reversed tuple round-trips."""
    a = FiveTuple(src_ip, dst_ip, sport, dport, 6)
    b = FiveTuple(src_ip, dst_ip, sport, dport, 6)
    assert crc32_tuple(a) == crc32_tuple(b)
    assert crc32_tuple(a.reversed().reversed()) == crc32_tuple(a)


@given(st.integers(1, 1 << 16), st.binary(min_size=1, max_size=16))
@settings(max_examples=80, deadline=None)
def test_property_engine_index_in_range_and_deterministic(width, data):
    eng = HashEngine(width)
    idx = eng.index(data)
    assert 0 <= idx < width
    assert eng.index(data) == idx


def test_slot_distribution_chi_square_sanity():
    """Flow IDs from realistic 5-tuples must spread over register slots
    like a uniform hash: chi-square over 256 bins, 20k distinct tuples,
    must not exceed the 99.9th percentile of chi2(255)."""
    stats = pytest.importorskip("scipy.stats")
    width = 256
    eng = HashEngine(width)
    counts = [0] * width
    n = 0
    for host in range(40):
        for port in range(500):
            ft = FiveTuple(0x0A000000 + host, 0x0A010000 + (host % 7),
                           49152 + port, 5201 + (port % 3), 6)
            counts[eng.index(pack_five_tuple(ft))] += 1
            n += 1
    expected = n / width
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    cutoff = stats.chi2.ppf(0.999, width - 1)
    assert chi2 < cutoff, f"chi2={chi2:.1f} >= {cutoff:.1f}: biased slots"


def test_salted_rows_disagree():
    """CMS rows use salted engines; rows must not be copies of each
    other (independent hash functions are what the eps*N analysis
    assumes)."""
    width = 64
    rows = [HashEngine(width, salt=r) for r in range(3)]
    keys = [i.to_bytes(4, "big") for i in range(200)]
    for a in range(3):
        for b in range(a + 1, 3):
            same = sum(1 for k in keys
                       if rows[a].index(k) == rows[b].index(k))
            # ~200/64 ≈ 3 expected collisions by chance; identical rows
            # would give 200.
            assert same < 40
