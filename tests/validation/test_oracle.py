"""GroundTruthOracle unit semantics, driven by synthetic events."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.netsim.observer import EventStream, NetEvent, NetEventKind
from repro.netsim.packet import PROTO_UDP, FiveTuple, Packet, TCPFlags
from repro.p4.registers import SPARSE_CELLS, RegisterArray
from repro.telemetry import hooks, profiling, provenance
from repro.validation import oracle as oracle_module
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


def test_equal_seq_resend_rearms_the_stash(oracle):
    """An equal sequence number is no regression: the resend re-arms the
    stash, so the ACK pairs with the resend on both truths."""
    first = data_pkt(seq=1)
    ingress(oracle, first, 1_000)
    ingress(oracle, data_pkt(seq=1), 300_000)    # same seq: not a regression
    ingress(oracle, ack_pkt(first.expected_ack), 320_000)
    truth = oracle.truth_for(FiveTuple(SRC, DST, 1000, 2000, 6))
    assert truth.regressions == 0
    assert truth.rtt_samples == [(320_000, 20_000)]
    assert truth.expected_rtt_samples == [(320_000, 20_000)]


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


def test_the_reference_is_built_dark_under_live_observers(monkeypatch):
    """The reference's registers have 2^32 cells: bound to a live tracer,
    each would ask for a dense last-writer list.  Built under the tracer
    and the profiler it adds no writer map, binds neither, and leaves
    both slots as it found them."""
    tracer = provenance.enable()
    prof = profiling.enable()
    writer_map = type(tracer).writer_map

    def bounded(self, name, size):
        assert size <= SPARSE_CELLS, f"dense writer map {name}[{size}]"
        return writer_map(self, name, size)

    monkeypatch.setattr(type(tracer), "writer_map", bounded)
    try:
        built = GroundTruthOracle()
        assert (hooks.tracer, hooks.profiler) == (tracer, prof)
    finally:
        profiling.disable()
        provenance.disable()
    assert tracer._writer_maps == {}
    # The reference keeps the RTT/loss stage's six registers and no flow
    # table: it takes the IDs and slots from a FlowIdEngine.
    registers = [reg for reg in vars(built._algorithm).values()
                 if isinstance(reg, RegisterArray)]
    assert len(registers) == 6
    traced = (built._parser, built._algorithm, *registers)
    assert all(part._trace is None for part in traced)


def test_validation_holds_no_serial_rule():
    """Algorithm 1's RFC 1982 serial compare lives in the stages only: no
    module under ``repro/validation`` carries its ``0x80000000``."""
    package = Path(oracle_module.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and node.value == 0x80000000]
    assert found == []
