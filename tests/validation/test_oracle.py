"""GroundTruthOracle unit semantics, driven by synthetic events."""

from __future__ import annotations

import pytest

from repro.netsim.observer import EventStream, NetEvent, NetEventKind
from repro.netsim.packet import PROTO_UDP, FiveTuple, Packet, TCPFlags
from repro.validation.oracle import GroundTruthOracle

SRC = 0x0A000001
DST = 0x0A000002


def data_pkt(seq: int, payload: int = 1000, **kw) -> Packet:
    return Packet(src_ip=SRC, dst_ip=DST, src_port=1000, dst_port=2000,
                  seq=seq, flags=TCPFlags.ACK, payload_len=payload, **kw)


def ack_pkt(ack: int) -> Packet:
    return Packet(src_ip=DST, dst_ip=SRC, src_port=2000, dst_port=1000,
                  ack=ack, flags=TCPFlags.ACK)


@pytest.fixture
def oracle():
    return GroundTruthOracle()


def ingress(oracle, pkt, ts):
    oracle.on_event(NetEvent(NetEventKind.SWITCH_INGRESS, ts, pkt, "core"))


def egress(oracle, pkt, ts):
    oracle.on_event(NetEvent(NetEventKind.PORT_EGRESS, ts, pkt, "core", 0))


def drop(oracle, pkt, ts=0):
    oracle.on_event(NetEvent(NetEventKind.QUEUE_DROP, ts, pkt, "core"))


def test_counts_arrivals_with_total_length_and_windows(oracle):
    for i, ts in enumerate((100, 200, 300)):
        ingress(oracle, data_pkt(seq=1 + i * 1000), ts)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.packets == 3
    assert truth.bytes_total_len == 3 * (1000 + 40)  # payload + IP/TCP headers
    assert truth.payload_bytes == 3000
    assert truth.packets_since(200) == (2, 2 * 1040)
    assert truth.first_ts_ns == 100 and truth.last_ts_ns == 300


def test_payload_window_is_strictly_before(oracle):
    ingress(oracle, data_pkt(seq=1), 100)
    ingress(oracle, data_pkt(seq=1001), 200)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.payload_bytes_until(200) == 1000
    assert truth.payload_bytes_until(201) == 2000


def test_eack_matching_yields_exact_rtt_on_data_direction(oracle):
    pkt = data_pkt(seq=1)
    ingress(oracle, pkt, 1_000)
    ingress(oracle, ack_pkt(pkt.expected_ack), 26_000)
    data_truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert data_truth.rtt_samples == [(26_000, 25_000)]
    assert data_truth.expected_rtt_samples == [(26_000, 25_000)]
    assert oracle.rtt_matches == 1


def test_retransmission_splits_path_and_expected_rtt(oracle):
    """Path truth re-arms on the retransmission; the expected-measurement
    replay keeps the original copy's timestamp, exactly as the data plane
    does (no re-stash on a sequence regression)."""
    first = data_pkt(seq=1)
    ingress(oracle, first, 1_000)
    ingress(oracle, data_pkt(seq=1001), 2_000)   # advances prev_seq
    retx = data_pkt(seq=1)                        # regression
    ingress(oracle, retx, 500_000)
    ingress(oracle, ack_pkt(first.expected_ack), 520_000)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.regressions == 1
    assert truth.rtt_samples == [(520_000, 20_000)]          # retx -> ACK
    assert truth.expected_rtt_samples == [(520_000, 519_000)]  # orig -> ACK


def test_expected_rtt_respects_staleness_cutoff():
    oracle = GroundTruthOracle(rtt_max_age_ns=100_000)
    first = data_pkt(seq=1)
    ingress(oracle, first, 1_000)
    ingress(oracle, ack_pkt(first.expected_ack), 500_000)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.rtt_samples and not truth.expected_rtt_samples


def test_queue_residency_by_packet_identity(oracle):
    pkt = data_pkt(seq=1)
    ingress(oracle, pkt, 1_000)
    egress(oracle, pkt, 9_000)
    other = data_pkt(seq=1001)
    egress(oracle, other, 10_000)  # never entered: ignored
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.qdelay_samples == [(9_000, 8_000)]
    assert truth.max_qdelay_ns == 8_000
    assert truth.max_qdelay_in_window(0, 5_000) == 0
    assert oracle.qdelay_matches == 1
    assert oracle.global_max_qdelay_ns == 8_000


def test_drops_split_data_vs_control(oracle):
    drop(oracle, data_pkt(seq=1))
    drop(oracle, ack_pkt(1))
    data_truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    ack_truth = oracle.truth_for(FiveTuple(DST, SRC, 2000, 1000, 6))
    assert (data_truth.drops_data, data_truth.drops_control) == (1, 0)
    assert (ack_truth.drops_data, ack_truth.drops_control) == (0, 1)
    assert data_truth.drops == 1


def test_regression_replay_matches_serial_rule(oracle):
    # in-order, regression, duplicate seq (not a regression), wrap-around
    for seq, ts in ((1000, 1), (2000, 2), (1000, 3), (2000, 4), (2000, 5)):
        ingress(oracle, data_pkt(seq=seq), ts)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.regressions == 1  # only the 2000 -> 1000 step regresses


def test_udp_flows_counted_but_no_rtt(oracle):
    pkt = Packet(src_ip=SRC, dst_ip=DST, src_port=7000, dst_port=7001,
                 proto=PROTO_UDP, payload_len=1400, flags=TCPFlags(0))
    ingress(oracle, pkt, 50)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 7000, 7001, PROTO_UDP))
    assert truth.packets == 1 and not truth.is_tcp
    assert not truth.rtt_samples
    assert truth.payload_bytes == 1400
    assert oracle.total_tcp_payload_bytes == 0
