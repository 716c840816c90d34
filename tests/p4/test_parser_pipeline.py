"""Parser, pipeline scaffolding, digests and the runtime API."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, Packet, TCPFlags, make_data_packet
from repro.p4.externs import Digest
from repro.p4.parser import HeaderParser
from repro.p4.pipeline import P4Pipeline, PipelineStage, StandardMetadata
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program, P4RuntimeClient


# -- parser ---------------------------------------------------------------


def test_parser_extracts_fields():
    parser = HeaderParser()
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=100, payload_len=500, ack=7)
    hdr = parser.parse(pkt)
    assert hdr.five_tuple == pkt.five_tuple
    assert hdr.seq == 100
    assert hdr.payload_len == 500
    assert hdr.is_tcp
    assert parser.accepted == 1


def test_parser_object_and_bytes_agree():
    parser = HeaderParser()
    pkt = make_data_packet(FiveTuple(11, 22, 33, 44), seq=9, payload_len=77)
    h_obj = parser.parse(pkt)
    h_raw = parser.parse(pkt.to_bytes())
    assert h_obj == h_raw


def test_parser_rejects_non_tcp():
    parser = HeaderParser()
    udp = Packet(1, 2, 3, 4, proto=17, payload_len=10)
    assert parser.parse(udp) is None
    assert parser.rejected == 1


def test_parser_rejects_garbage_bytes():
    parser = HeaderParser()
    assert parser.parse(b"\x00" * 10) is None


def test_parsed_expected_ack_matches_packet():
    parser = HeaderParser()
    pkt = Packet(1, 2, 3, 4, seq=50, flags=TCPFlags.SYN, payload_len=0)
    hdr = parser.parse(pkt)
    assert hdr.expected_ack == pkt.expected_ack == 51


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 9000))
def test_property_payload_len_derivation(seq, payload):
    """payload_len is derived exactly as Algorithm 1 derives it."""
    parser = HeaderParser()
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=seq, payload_len=payload)
    hdr = parser.parse(pkt)
    assert hdr.payload_len == hdr.ip_total_len - 4 * hdr.ihl - 4 * hdr.data_offset
    assert hdr.payload_len == payload


# -- pipeline ------------------------------------------------------------------


class TagStage(PipelineStage):
    def __init__(self, tag, log, drop=False):
        self.tag = tag
        self.log = log
        self.drop = drop

    def process(self, hdr, meta):
        self.log.append(self.tag)
        if self.drop:
            meta.drop = True


def test_pipeline_stage_order():
    pipe = P4Pipeline()
    log = []
    pipe.add_ingress(TagStage("i1", log))
    pipe.add_ingress(TagStage("i2", log))
    pipe.add_egress(TagStage("e1", log))
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=0)
    hdr = pipe.process(pkt, StandardMetadata())
    assert hdr is not None
    assert log == ["i1", "i2", "e1"]


def test_pipeline_drop_short_circuits():
    pipe = P4Pipeline()
    log = []
    pipe.add_ingress(TagStage("i1", log, drop=True))
    pipe.add_ingress(TagStage("i2", log))
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=0)
    assert pipe.process(pkt, StandardMetadata()) is None
    assert log == ["i1"]
    assert pipe.packets_dropped == 1


def test_pipeline_counts_parser_rejects():
    pipe = P4Pipeline()
    udp = Packet(1, 2, 3, 4, proto=17)
    assert pipe.process(udp, StandardMetadata()) is None
    assert pipe.packets_dropped == 1


# -- digests ------------------------------------------------------------------


def test_digest_immediate_delivery():
    d = Digest("x")
    got = []
    d.subscribe(lambda name, payload: got.append((name, payload)))
    d.emit(a=1)
    assert got == [("x", {"a": 1})]


def test_digest_backlog_flushes_on_subscribe():
    d = Digest("x")
    d.emit(a=1)
    d.emit(a=2)
    got = []
    d.subscribe(lambda name, payload: got.append(payload["a"]))
    assert got == [1, 2]


def test_digest_backlog_bounded():
    d = Digest("x", max_queue=2)
    for i in range(5):
        d.emit(i=i)
    assert d.dropped == 3


def test_digest_latency_via_sim():
    sim = Simulator()
    d = Digest("x", sim=sim, latency_ns=1000)
    got = []
    d.subscribe(lambda name, payload: got.append(sim.now))
    sim.at(0, d.emit)
    sim.run()
    assert got == [1000]


# -- program + runtime ---------------------------------------------------------


def test_program_registration_and_duplicates():
    prog = P4Program("p")
    reg = prog.register(RegisterArray("r", 4))
    assert prog.registers["r"] is reg
    with pytest.raises(ValueError):
        prog.register(RegisterArray("r", 4))
    dig = prog.digest(Digest("d"))
    with pytest.raises(ValueError):
        prog.digest(Digest("d"))


def test_runtime_register_access():
    prog = P4Program("p")
    reg = prog.register(RegisterArray("r", 4))
    rt = P4RuntimeClient(prog)
    reg.write(2, 99)
    assert rt.read_register("r", 2) == 99
    snap = rt.read_register("r")
    assert list(snap) == [0, 0, 99, 0]
    assert list(rt.read_registers("r", [2, 0])) == [99, 0]
    rt.clear_register("r")
    assert rt.read_register("r", 2) == 0
    assert rt.register_reads == 4


def test_runtime_unknown_names_explain():
    prog = P4Program("p")
    rt = P4RuntimeClient(prog)
    with pytest.raises(KeyError, match="no register"):
        rt.read_register("nope", 0)
    with pytest.raises(KeyError, match="no digest"):
        rt.subscribe_digest("nope", lambda n, p: None)
