"""Packet model: wire-format fidelity, flow keys, eACK semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import (
    FiveTuple,
    Packet,
    TCPFlags,
    int_to_ip,
    ip_to_int,
    ipv4_checksum,
    make_ack_packet,
    make_data_packet,
)


def test_ip_conversion_known_values():
    assert ip_to_int("10.0.0.1") == 0x0A000001
    assert int_to_ip(0xC0A80101) == "192.168.1.1"


@pytest.mark.parametrize("bad", ["10.0.0", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
def test_ip_conversion_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ip_to_int(bad)


def test_int_to_ip_rejects_out_of_range():
    for _ in range(2):  # the memo must not cache (or swallow) the error
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


def test_int_to_ip_memo_is_bounded_and_transparent():
    assert int_to_ip(0x0A000001) == int_to_ip(0x0A000001) == "10.0.0.1"
    assert 0 < int_to_ip.cache_info().maxsize <= 1 << 16


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_property_ip_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


def test_five_tuple_reversal_is_involution():
    ft = FiveTuple(1, 2, 3, 4, 6)
    assert ft.reversed().reversed() == ft
    assert ft.reversed() == FiveTuple(2, 1, 4, 3, 6)


def test_ip_total_len_matches_wire_semantics():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=1000)
    assert pkt.ip_total_len == 20 + 20 + 1000
    assert pkt.wire_len == 14 + pkt.ip_total_len


def test_expected_ack_plain_data():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=1000, payload_len=500)
    assert pkt.expected_ack == 1500


def test_expected_ack_counts_syn_and_fin():
    syn = Packet(1, 2, 3, 4, seq=99, flags=TCPFlags.SYN)
    assert syn.expected_ack == 100
    fin = Packet(1, 2, 3, 4, seq=10, flags=TCPFlags.FIN | TCPFlags.ACK, payload_len=5)
    assert fin.expected_ack == 16


def test_expected_ack_wraps_32bit():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0xFFFFFFFF, payload_len=10)
    assert pkt.expected_ack == 9


def test_uid_unique():
    a = make_ack_packet(FiveTuple(1, 2, 3, 4), ack=1)
    b = make_ack_packet(FiveTuple(1, 2, 3, 4), ack=1)
    assert a.uid != b.uid


def test_wire_roundtrip_basic():
    pkt = Packet(
        src_ip=ip_to_int("10.0.0.10"),
        dst_ip=ip_to_int("10.1.0.10"),
        src_port=49152,
        dst_port=5201,
        seq=123456,
        ack=654321,
        flags=TCPFlags.ACK | TCPFlags.PSH,
        window=8192,
        payload_len=1400,
        ip_id=77,
    )
    parsed = Packet.from_bytes(pkt.to_bytes())
    for attr in ("src_ip", "dst_ip", "src_port", "dst_port", "seq", "ack",
                 "window", "payload_len", "ip_id", "proto", "ttl"):
        assert getattr(parsed, attr) == getattr(pkt, attr), attr
    assert parsed.flags == pkt.flags


def test_wire_roundtrip_sack():
    pkt = make_ack_packet(FiveTuple(1, 2, 3, 4), ack=100)
    pkt.sack = ((200, 300), (400, 500))
    pkt.tcp_options_len = 20
    parsed = Packet.from_bytes(pkt.to_bytes())
    assert parsed.sack == ((200, 300), (400, 500))
    assert parsed.tcp_options_len == 20


def test_sack_too_many_blocks_rejected():
    with pytest.raises(ValueError):
        Packet(1, 2, 3, 4, sack=((1, 2), (3, 4), (5, 6), (7, 8)))


def test_options_len_must_be_word_aligned():
    with pytest.raises(ValueError):
        Packet(1, 2, 3, 4, tcp_options_len=3)


def test_ipv4_checksum_validates():
    pkt = make_data_packet(FiveTuple(ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), 1, 2),
                           seq=5, payload_len=64)
    raw = pkt.to_bytes()
    ip_header = raw[14:34]
    # A correct IPv4 checksum makes the header sum to zero.
    assert ipv4_checksum(ip_header) == 0


def test_from_bytes_rejects_truncated():
    with pytest.raises(ValueError):
        Packet.from_bytes(b"\x00" * 20)


def test_from_bytes_rejects_non_ipv4():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=0)
    raw = bytearray(pkt.to_bytes())
    raw[12:14] = b"\x86\xdd"  # IPv6 ethertype
    with pytest.raises(ValueError):
        Packet.from_bytes(bytes(raw))


@st.composite
def packets(draw):
    return Packet(
        src_ip=draw(st.integers(0, 0xFFFFFFFF)),
        dst_ip=draw(st.integers(0, 0xFFFFFFFF)),
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, 0xFFFFFFFF)),
        ack=draw(st.integers(0, 0xFFFFFFFF)),
        flags=TCPFlags(draw(st.integers(0, 0xFF))),
        window=draw(st.integers(0, 0xFFFF)),
        payload_len=draw(st.integers(0, 9000)),
        ip_id=draw(st.integers(0, 0xFFFF)),
        ttl=draw(st.integers(1, 255)),
    )


@given(packets())
def test_property_wire_roundtrip(pkt):
    parsed = Packet.from_bytes(pkt.to_bytes())
    assert parsed.five_tuple == pkt.five_tuple
    assert parsed.seq == pkt.seq
    assert parsed.ack == pkt.ack
    assert parsed.flags == pkt.flags
    assert parsed.payload_len == pkt.payload_len
    assert parsed.ip_total_len == pkt.ip_total_len
    assert parsed.expected_ack == pkt.expected_ack


@given(packets())
def test_property_wire_length_matches_serialisation(pkt):
    assert len(pkt.to_bytes()) == pkt.wire_len
