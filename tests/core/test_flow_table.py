"""Flow identification, long-flow detection, slot lifecycle (§4)."""

import pytest

from repro.netsim.packet import FiveTuple, TCPFlags
from repro.p4.hashes import crc32_tuple

from tests.core.helpers import FT, FlowScript, small_monitor


def collect_digest(monitor, name):
    got = []
    monitor.runtime().subscribe_digest(name, lambda n, p: got.append(p))
    return got


def test_short_flow_claims_no_slot():
    mon = small_monitor(long_flow_bytes=10_000)
    script = FlowScript(mon)
    script.data(1, 500, 100)
    assert mon.flow_table.flow_key.read(script.slot) == 0


def test_long_flow_claims_slot_and_announces():
    mon = small_monitor()
    digests = collect_digest(mon, "long_flow")
    script = FlowScript(mon)
    script.make_long(t_ns=5_000)
    assert mon.flow_table.flow_key.read(script.slot) == script.flow_id
    assert len(digests) == 1
    d = digests[0]
    assert d["flow_id"] == script.flow_id
    assert d["rev_flow_id"] == script.rev_flow_id
    assert d["src_ip"] == FT.src_ip
    assert d["dst_ip"] == FT.dst_ip
    assert d["first_seen_ns"] == 5_000


def test_cumulative_cms_detection():
    """Several small packets cross the threshold together."""
    mon = small_monitor(long_flow_bytes=3000)
    script = FlowScript(mon)
    for i in range(3):
        script.data(1 + i * 1000, 1000, 100 + i)
    assert mon.flow_table.flow_key.read(script.slot) == script.flow_id


def test_byte_and_packet_accounting_after_claim():
    mon = small_monitor(long_flow_bytes=100)
    script = FlowScript(mon)
    p1 = script.data(1, 200, 100)       # claims
    p2 = script.data(201, 300, 200)
    ft_stage = mon.flow_table
    assert ft_stage.flow_pkts.read(script.slot) == 2
    assert ft_stage.flow_bytes.read(script.slot) == p1.ip_total_len + p2.ip_total_len
    assert ft_stage.flow_last.read(script.slot) == 200


def test_pure_ack_flow_never_claims():
    """The reverse (ACK) direction carries no payload; it must not burn
    flow-table slots."""
    mon = small_monitor(long_flow_bytes=100)
    script = FlowScript(mon)
    for i in range(200):
        script.ack(1000 + i, 100 + i)
    rev_slot = script.rev_flow_id & (mon.config.flow_slots - 1)
    assert mon.flow_table.flow_key.read(rev_slot) == 0


def test_slot_collision_counted_and_skipped():
    mon = small_monitor(long_flow_bytes=100)
    # Find two tuples colliding in the slot space.
    base = FiveTuple(0x0A000001, 0x0A000002, 1000, 5201)
    mask = mon.config.flow_slots - 1
    target = crc32_tuple(base) & mask
    other = None
    for port in range(1001, 60_000):
        cand = FiveTuple(0x0A000001, 0x0A000002, port, 5201)
        if (crc32_tuple(cand) & mask) == target and crc32_tuple(cand) != crc32_tuple(base):
            other = cand
            break
    assert other is not None
    s1 = FlowScript(mon, base)
    s2 = FlowScript(mon, other)
    s1.data(1, 200, 100)
    before = mon.flow_table.flow_bytes.read(target)
    s2.data(1, 200, 200)  # collides: claimed by s1
    assert mon.flow_table.slot_collisions >= 1
    assert mon.flow_table.flow_key.read(target) == s1.flow_id
    assert mon.flow_table.flow_bytes.read(target) == before


def test_fin_emits_termination_digest_once():
    mon = small_monitor(long_flow_bytes=100)
    digests = collect_digest(mon, "flow_termination")
    script = FlowScript(mon)
    script.data(1, 500, 100)
    script.data(501, 500, 200)
    script.data(1001, 0, 300, flags=TCPFlags.FIN | TCPFlags.ACK)
    script.data(1001, 0, 400, flags=TCPFlags.FIN | TCPFlags.ACK)  # retransmitted FIN
    assert len(digests) == 1
    d = digests[0]
    assert d["flow_id"] == script.flow_id
    assert d["start_ns"] == 100
    assert d["end_ns"] == 300
    assert d["total_packets"] == 3


def test_rst_also_terminates():
    mon = small_monitor(long_flow_bytes=100)
    digests = collect_digest(mon, "flow_termination")
    script = FlowScript(mon)
    script.data(1, 500, 100)
    script.data(501, 0, 200, flags=TCPFlags.RST)
    assert len(digests) == 1


def test_release_slot_clears_everything():
    mon = small_monitor(long_flow_bytes=100)
    script = FlowScript(mon)
    script.data(1, 500, 100)
    mon.flow_table.release_slot(script.slot)
    assert mon.flow_table.flow_key.read(script.slot) == 0
    assert mon.flow_table.flow_bytes.read(script.slot) == 0
    assert mon.flow_table.flow_start.read(script.slot) == 0


def test_egress_copies_do_not_double_count():
    mon = small_monitor(long_flow_bytes=100)
    script = FlowScript(mon)
    script.transit(1, 500, 100, 200)  # one packet, both copies
    assert mon.flow_table.flow_pkts.read(script.slot) == 1


def test_meta_flow_ids_set_for_all_packets():
    mon = small_monitor()
    from repro.netsim.packet import make_ack_packet, make_data_packet
    from repro.netsim.tap import TapDirection
    pkt = make_data_packet(FT, seq=1, payload_len=10)
    meta = mon.process_packet(pkt, TapDirection.INGRESS, 100)
    assert meta.flow_id == crc32_tuple(FT)
    assert meta.rev_flow_id == crc32_tuple(FT.reversed())

    # Every copy carries both slots on to the stages, egress copies and
    # the ACK direction included, whether or not a flow is tracked.
    seen = {}
    for stage in (mon.flight, mon.queue):
        def spy(hdr, meta, name=stage.name, process=stage.process):
            seen.setdefault(name, []).append((meta.flow_slot, meta.rev_slot))
            process(hdr, meta)
        stage.process = spy
    mon.process_packet(pkt, TapDirection.EGRESS, 200)
    mon.process_packet(make_ack_packet(FT.reversed(), ack=11),
                       TapDirection.INGRESS, 300)
    mask = mon.config.flow_slots - 1
    fid, rid = crc32_tuple(FT) & mask, crc32_tuple(FT.reversed()) & mask
    assert fid != rid
    assert seen["queue_monitor"][0] == (fid, rid)   # the egress-TAP copy
    assert seen["flight_size"][1] == (rid, fid)     # the ACK: rev_slot is FT's
