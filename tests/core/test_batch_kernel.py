"""BatchKernel internals (the columnar hot path's own contracts).

The end-to-end semantics are pinned by the batched-vs-scalar
equivalence harness (tests/validation/test_batch_equivalence.py); the
tests here cover the kernel's numeric building blocks directly, where
a bit-level divergence would otherwise surface only as an opaque
digest mismatch.
"""

from __future__ import annotations

import ast
import gc
import io
import sys
import tokenize
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import batch
from repro.core.batch import BatchKernel, crc32_rows
from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import (PROTO_UDP, FiveTuple, Packet, TCPFlags,
                                 make_ack_packet, make_data_packet)
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.p4.hashes import crc32_tuple
from repro.p4.registers import RegisterArray
from repro.perfsonar.archiver import Archiver
from repro.resilience import faults
from repro.resilience.schedule import FaultSchedule
from repro.telemetry import profiling, provenance
from tests.core.helpers import FT


def _parity(mat: np.ndarray) -> None:
    got = crc32_rows(mat)
    assert got.dtype == np.uint32
    expected = [zlib.crc32(bytes(row)) & 0xFFFFFFFF for row in mat]
    assert got.tolist() == expected


#: 8-byte stash signatures, the 13-byte 5-tuple, the 20-byte queue-pair
#: layout, and two short widths.
_WIDTHS = (1, 3, 8, 13, 20)


def test_crc32_rows_matches_zlib_on_signature_widths():
    """Every width the kernel hashes must be bit-identical to zlib.crc32
    per row."""
    rng = np.random.default_rng(0)
    for width in _WIDTHS:
        _parity(rng.integers(0, 256, size=(64, width), dtype=np.uint8))


def test_crc32_rows_edge_rows():
    for width in _WIDTHS:
        _parity(np.zeros((3, width), dtype=np.uint8))
        _parity(np.full((3, width), 0xFF, dtype=np.uint8))
        # single row, and an empty batch
        _parity(np.arange(width, dtype=np.uint8).reshape(1, width))
        _parity(np.empty((0, width), dtype=np.uint8))
        assert crc32_rows(np.empty((0, width), dtype=np.uint8)).shape == (0,)


@settings(deadline=None, max_examples=50)
@given(rows=st.lists(st.binary(min_size=8, max_size=8),
                     min_size=1, max_size=32))
def test_crc32_rows_matches_zlib_property(rows):
    mat = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), 8)
    _parity(mat)


# -- kernel vs scalar twin on hand-built copies ------------------------------


def _twin_monitor(batched: bool, **overrides) -> P4Monitor:
    config = MonitorConfig(flow_slots=16, eack_table_size=256,
                           queue_stash_size=256, cms_width=64,
                           long_flow_bytes=1000, batched_path=batched,
                           **overrides)
    return P4Monitor(config, sim=Simulator())


def _tallies(mon: P4Monitor) -> dict:
    """Everything an observer can read off a monitor besides its state."""
    prog = mon.program
    out = {f"ops[{name}]": reg.ops for name, reg in prog.registers.items()}
    for name, cms in prog.sketches.items():
        out[f"sketch[{name}]"] = (cms.updates, cms.queries)
    for name, digest in prog.digests.items():
        out[f"digest[{name}]"] = (digest.emitted, digest.dropped)
    ft, rl, qs = mon.flow_table, mon.rtt_loss, mon.queue
    out["stages"] = (ft.slot_collisions, rl.stash_evictions, rl.rtt_matches,
                     rl.rtt_misses, rl.rtt_stale, qs.pairs_matched,
                     qs.pairs_missed, qs.stash_evictions,
                     mon.microburst.bursts_detected)
    out["parser"] = (mon.pipeline.parser.accepted, mon.pipeline.parser.rejected)
    out["copies"] = (mon.copies_ingress, mon.copies_egress)
    out["pipeline"] = (mon.pipeline.packets_in, mon.pipeline.packets_dropped)
    return out


def _record_digests(mon: P4Monitor) -> list:
    """Every digest ``mon`` emits, as (name, payload) in emission order;
    a termination also records its slot's ``pkt_loss`` as the control
    plane reads it on arrival."""
    emitted: list = []

    def record(name, payload):
        emitted.append((name, sorted(payload.items())))
        if name == "flow_termination":
            emitted.append(mon.rtt_loss.pkt_loss.snapshot()[payload["slot"]])

    for digest in mon.program.digests.values():
        digest.subscribe(record)
    return emitted


class Twins:
    """The same copies into a batched and a scalar monitor."""

    def __init__(self, **overrides) -> None:
        self.batched = _twin_monitor(True, **overrides)
        self.scalar = _twin_monitor(False, **overrides)
        assert self.batched.kernel is not None and self.scalar.kernel is None
        self.digests = [_record_digests(self.batched),
                        _record_digests(self.scalar)]
        self.t = 1_000

    def copy(self, pkt: Packet, direction=TapDirection.INGRESS,
             egress_port_id: int = 0) -> None:
        self.t += 10_000
        copy = MirrorCopy(pkt, direction, self.t, egress_port_id)
        self.batched.receive_copy(copy)
        self.scalar.receive_copy(copy)

    def transit(self, pkt: Packet) -> None:
        self.copy(pkt)
        self.copy(pkt, TapDirection.EGRESS)

    def track(self, ft: FiveTuple, seq: int = 1) -> int:
        """Push a flow past the long-flow threshold; returns the next seq."""
        for k in range(3):
            self.transit(make_data_packet(ft, seq=seq, payload_len=600,
                                          ip_id=k + 1))
            seq += 600
        return seq

    def check(self) -> None:
        self.batched.flush()
        for mon in (self.batched, self.scalar):
            assert (mon.copies_ingress + mon.copies_egress
                    == mon.pipeline.packets_in)
        assert (self.batched.program.state_digest()
                == self.scalar.program.state_digest())
        assert _tallies(self.batched) == _tallies(self.scalar)
        batched, scalar = self.digests
        assert repr(batched) == repr(scalar)


def _udp(ft: FiveTuple = FT) -> Packet:
    return Packet(ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port,
                  payload_len=200, proto=PROTO_UDP)


def test_flush_of_only_rejected_copies_is_accounted():
    twins = Twins()
    for _ in range(5):
        twins.transit(_udp())
    twins.check()
    pipeline = twins.batched.pipeline
    assert (pipeline.parser.accepted, pipeline.parser.rejected) == (0, 10)
    assert (pipeline.packets_in, pipeline.packets_dropped) == (10, 10)


def test_copies_are_counted_at_flush_with_the_other_tallies():
    """The batched sink only appends; the flush counts every record's
    port lane, parser rejects included.  So the copies counted equal the
    copies the pipeline took in at every instant on the batched path,
    and at every flush boundary on both."""
    twins = Twins()
    batched = twins.batched
    for k in range(3):
        twins.transit(_udp())
        twins.copy(_udp(FT.reversed()))
        twins.transit(make_data_packet(FT, seq=1 + 600 * k, payload_len=600,
                                       ip_id=k))
        assert batched.kernel.pending == 5
        assert (batched.copies_ingress + batched.copies_egress
                == batched.pipeline.packets_in == 5 * k)
        twins.check()
        assert (batched.copies_ingress, batched.copies_egress) == (
            3 * (k + 1), 2 * (k + 1))
    assert batched.pipeline.parser.rejected == 9


def test_mixed_tcp_udp_flush_drops_the_rejected_rows_only():
    twins = Twins()
    seq = 1
    for k in range(6):
        twins.transit(_udp())
        twins.transit(make_data_packet(FT, seq=seq, payload_len=600, ip_id=k))
        seq += 600
        twins.copy(_udp(FT.reversed()))
        twins.copy(make_ack_packet(FT.reversed(), ack=seq))
    twins.check()
    assert twins.batched.pipeline.parser.rejected == 18
    assert twins.batched.rtt_loss.rtt_matches == 6


@pytest.mark.parametrize("flags, consumed", [
    (TCPFlags.ACK, 0), (TCPFlags.SYN, 1), (TCPFlags.FIN | TCPFlags.ACK, 1),
    (TCPFlags.RST | TCPFlags.ACK, 0), (TCPFlags.SYN | TCPFlags.FIN, 2)])
def test_eack_counts_syn_and_fin(flags, consumed):
    """SYN and FIN each consume a sequence number: the receiver's ACK of
    ``seq + len + consumed`` must hit the stashed eACK on both paths."""
    twins = Twins()
    seq = twins.track(FT)
    twins.transit(make_data_packet(FT, seq=seq, payload_len=100, flags=flags))
    twins.copy(make_ack_packet(FT.reversed(), ack=seq + 100 + consumed))
    twins.check()
    assert twins.batched.rtt_loss.rtt_matches == 1
    assert twins.batched.rtt_loss.rtt_misses == 0


def test_seq_and_ack_wrap_at_two_to_the_32():
    twins = Twins()
    seq = (1 << 32) - 2000
    for k in range(4):  # the third segment straddles the wrap
        twins.transit(make_data_packet(FT, seq=seq, payload_len=900, ip_id=k))
        seq = (seq + 900) & 0xFFFFFFFF
        twins.copy(make_ack_packet(FT.reversed(), ack=seq,
                                   seq=(1 << 32) - 1))
    twins.check()
    assert seq < 2000
    assert twins.batched.rtt_loss.rtt_matches == 4
    assert twins.batched.rtt_loss.pkt_loss.read(
        crc32_tuple(FT) & (twins.batched.config.flow_slots - 1)) == 0


def test_timestamp_bits_64_wrap_in_unsigned_arithmetic():
    """At 64-bit timestamps the masks span the whole uint64 range: the
    kernel masks and subtracts in unsigned arithmetic, so a clock that
    steps back wraps each delay and RTT exactly as the registers do."""
    twins = Twins(timestamp_bits=64)
    seq = twins.track(FT)
    pkt = make_data_packet(FT, seq=seq, payload_len=600, ip_id=7)
    twins.copy(pkt)
    twins.t = -10_000  # the next copy is stamped 0, before the ingress copy
    twins.copy(pkt, TapDirection.EGRESS)
    twins.copy(make_ack_packet(FT.reversed(), ack=seq + 600))
    twins.check()
    slot = crc32_tuple(FT) & (twins.batched.config.flow_slots - 1)
    assert twins.batched.queue.flow_qdelay.read(slot) > 1 << 63
    assert twins.batched.rtt_loss.rtt_stale == 1


# -- arbitrary copy streams: the kernel's exception rows -----------------------


def _pool(slots: int = 16, size: int = 6) -> list:
    """``size`` flows, two to a slot of ``slots``."""
    by_slot: dict = {}
    for k in range(4096):
        ft = FiveTuple(0x0A000001 + k, 0x0A010001, 40000 + k, 5201)
        by_slot.setdefault(crc32_tuple(ft) & (slots - 1), []).append(ft)
    pairs = [flows[:2] for flows in by_slot.values() if len(flows) >= 2]
    return [ft for pair in pairs[:size // 2] for ft in pair]


_FLOWS = _pool()
_SEQ_BASES = (1, 0, (1 << 32) - 1500, (1 << 31) - 700)
_FLAGS = (TCPFlags.ACK, TCPFlags.ACK, TCPFlags.FIN | TCPFlags.ACK,
          TCPFlags.RST | TCPFlags.ACK, TCPFlags.RST, TCPFlags.SYN,
          TCPFlags.ACK | TCPFlags.PSH)
_flow = st.integers(0, len(_FLOWS) - 1)
# an ingress data copy: next, equal-seq resend, regression, far jumps
_data = st.tuples(st.just("data"), _flow, st.sampled_from(
    ("next", "next", "same", "back", "half", "ahead")),
    st.sampled_from((1, 600, 1448)), st.sampled_from(_FLAGS), st.booleans())
_ack = st.tuples(st.just("ack"), _flow, st.integers(0, 3))  # receiver's ACK
_egress = st.tuples(st.just("egress"), st.integers(0, 5), st.integers(0, 3))
_ops = st.lists(st.one_of(
    _data, _data, _data, _ack, _ack, _egress, _egress,
    st.tuples(st.just("pure"), _flow, st.sampled_from(_FLAGS)),
    st.tuples(st.just("orphan"), _flow),
    st.tuples(st.just("wait"), st.sampled_from((20, 60, 1500))),
    st.just(("zero",)), st.just(("check",)), st.just(("check",)),
), max_size=60)
_FIN = TCPFlags.FIN | TCPFlags.ACK
_A = TCPFlags.ACK


def _replay(twins: Twins, bits: int, bases, ops) -> None:
    """Drive ``twins`` with ``ops``.  Kept per flow: its last sequence
    number and expected ACK, and every expected ACK its data asked for;
    kept overall: every data packet, which egress copies re-mirror."""
    sent = [[base, 0] for base in bases]  # per flow: last seq, last eACK
    eacks = [[] for _ in _FLOWS]
    packets: list = []
    ip_id = 0
    for op in ops:
        kind = op[0]
        if kind == "data":
            _, f, how, plen, flags, transit = op
            last, nxt = sent[f]
            seq = {"next": nxt or last, "same": last,
                   "back": last - 2 * plen, "half": last + (1 << 31) + 7,
                   "ahead": last + (1 << 30)}[how] & 0xFFFFFFFF
            ip_id += 1
            pkt = make_data_packet(_FLOWS[f], seq=seq, payload_len=plen,
                                   flags=flags, ip_id=ip_id)
            eack = (seq + plen + bool(flags & TCPFlags.SYN)
                    + bool(flags & TCPFlags.FIN)) & 0xFFFFFFFF
            sent[f] = [seq, eack]
            eacks[f].append(eack)
            packets.append(pkt)
            twins.transit(pkt) if transit else twins.copy(pkt)
        elif kind == "ack":
            _, f, back = op
            ack = eacks[f][-1 - back] if back < len(eacks[f]) else 12345
            twins.copy(make_ack_packet(_FLOWS[f].reversed(), ack=ack))
        elif kind == "pure":
            _, f, flags = op
            ip_id += 1
            twins.copy(make_data_packet(_FLOWS[f], seq=sent[f][0],
                                        payload_len=0, flags=flags,
                                        ip_id=ip_id))
        elif kind == "egress" and packets:
            _, back, ecn = op
            pkt = packets[-1 - back % len(packets)]
            pkt.ecn = ecn
            twins.copy(pkt, TapDirection.EGRESS, egress_port_id=back % 2)
        elif kind == "orphan":
            twins.copy(make_data_packet(_FLOWS[op[1]], seq=777, payload_len=9,
                                        ip_id=0xFFFF), TapDirection.EGRESS)
        elif kind == "wait":
            twins.t += op[1] * 1_000_000
        elif kind == "zero":  # the next copy's timestamp masks to 0
            span = 1 << bits
            twins.t = ((twins.t // span + 1) * span if bits < 63 else 0) - 10_000
        elif kind == "check":
            twins.check()
    twins.check()


@pytest.mark.parametrize("bits", [20, 48, 64])
@settings(deadline=None, max_examples=300)
# a slot's sequences spanning half the space (serial order is not linear)
@example(bases=[1] * 6, ops=[("data", 0, "next", 600, _A, True),
                             ("data", 0, "ahead", 600, _A, True),
                             ("data", 0, "ahead", 600, _A, True)])
# an accepted sequence 0 opens the gate for a regression
@example(bases=[0] * 6, ops=[("data", 0, "next", 600, _A, False),
                             ("data", 0, "back", 600, _A, False)])
# FIN of a flow that owned its slot at flush start; a FIN that regresses
@example(bases=[1] * 6, ops=[("data", 0, "next", 1448, _A, True),
                             ("check",), ("data", 0, "back", 600, _A, True),
                             ("data", 0, "back", 600, _FIN, True),
                             ("data", 0, "next", 600, _A, True)])
@given(bases=st.lists(st.sampled_from(_SEQ_BASES), min_size=len(_FLOWS),
                      max_size=len(_FLOWS)),
       ops=_ops)
def test_arbitrary_copy_streams_match_the_scalar_stages(bits, bases, ops):
    """Whatever rows a flush holds -- flows sharing slots, sequences
    near 2^32 and half the space apart, equal-seq resends and
    regressions, FIN and RST, pure ACKs, egress copies without an
    ingress copy or twice, timestamps that mask to 0 or step back -- the
    kernel's joins and exception loops leave the state, the tallies and
    the digest sequence the scalar stages leave.  At 20 bits the 10 us
    copy spacing wraps the clock about every 100 copies."""
    _replay(Twins(timestamp_bits=bits), bits, bases, ops)


# -- microburst: a burst is a run of its port's rows -------------------------

#: A 400 us full-buffer drain at the default 10 Gb/s: the microburst
#: detector's on threshold is 200 us, its off threshold 100 us.
_MB = dict(buffer_bytes=500_000)
_ON, _OFF = 200_000, 100_000


def _queued(twins: Twins, k: int, delay: int, port: int = 0) -> None:
    """The ``k``-th data packet of FT, through egress ``port`` after
    ``delay`` ns in its queue."""
    pkt = make_data_packet(FT, seq=1 + 600 * k, payload_len=600, ip_id=k + 1)
    twins.copy(pkt)
    twins.t += delay - 10_000
    twins.copy(pkt, TapDirection.EGRESS, egress_port_id=port)


def test_microburst_open_across_a_flush_boundary():
    """A burst open at flush start is carried: the next flush holds no
    trigger, only the rows that close the burst."""
    twins = Twins(**_MB)
    assert (twins.batched.microburst.on_threshold_ns,
            twins.batched.microburst.off_threshold_ns) == (_ON, _OFF)
    _queued(twins, 0, _ON + 5_000)
    twins.check()
    _queued(twins, 1, 150_000)
    _queued(twins, 2, _OFF)
    twins.check()
    assert twins.batched.microburst.bursts_detected == 1


def test_microburst_trigger_after_another_ports_rows():
    """Port 1 bursts, closes and bursts again around port 0's first
    trigger, in one flush: each port's bursts are runs of its own rows."""
    twins = Twins(**_MB)
    for k, (delay, port) in enumerate((
            (150_000, 0),            # port 0, before its trigger
            (_ON, 1), (_OFF, 1),     # port 1's first burst
            (_ON, 0),                # port 0's first trigger
            (150_000, 1),            # port 1, between its bursts
            (_OFF, 0),
            (_ON + 1, 1), (_OFF - 1, 1))):
        _queued(twins, k, delay, port)
    twins.check()
    assert twins.batched.microburst.bursts_detected == 3


def test_microburst_delays_exactly_at_the_thresholds():
    """A delay equal to ``on`` starts a burst and one equal to ``off``
    ends it, so the row selection must take ``delay >= on``."""
    twins = Twins(**_MB)
    for k, delay in enumerate((_ON - 1, _ON, _OFF + 1, _OFF)):
        _queued(twins, k, delay)
    twins.check()
    assert twins.batched.microburst.bursts_detected == 1


def test_microburst_carried_burst_then_two_more_in_one_flush():
    """A burst open at flush start, its packet count about to wrap at
    2^32, closes; a second opens and closes, and a third opens and stays
    open into the next flush.  The carried burst's peak and packets
    continue the registers' values."""
    twins = Twins(**_MB)
    for mon in (twins.batched, twins.scalar):
        mb = mon.microburst
        for reg, value in ((mb.state, 1), (mb.start, 500), (mb.peak, _ON + 7),
                           (mb.pkt_count, (1 << 32) - 2)):
            reg.write(0, value)
    for k, delay in enumerate((150_000, _ON + 9, _OFF, 150_000, _ON, _ON + 3,
                               _OFF - 1, _ON + 1, 150_000)):
        _queued(twins, k, delay)
    twins.check()
    assert twins.batched.microburst.bursts_detected == 2
    _queued(twins, 9, _OFF)
    twins.check()
    assert twins.batched.microburst.bursts_detected == 3


@pytest.mark.parametrize("bits", [20, 32, 48])
def test_microburst_after_a_timestamp_wrap_reports_sim_time(bits):
    """A burst at t = 5 s, past the first wrap of a 20- or 32-bit clock:
    ``mb_start`` holds the masked start, so the duration is the masked
    difference to the closing copy's timestamp and the start is that
    timestamp less the duration -- sim time, on both paths."""
    twins = Twins(timestamp_bits=bits, **_MB)
    got = [[], []]
    for mon, into in zip((twins.batched, twins.scalar), got):
        mon.runtime().subscribe_digest(
            "microburst", lambda name, payload, into=into: into.append(payload))
    twins.t = 5_000_000_000 - _ON - 10_000
    _queued(twins, 0, _ON)        # egress at 5 s: the burst started 200 us ago
    twins.t = 5_000_100_000 - _OFF - 10_000
    _queued(twins, 1, _OFF)       # egress at 5.0001 s: the burst ends
    twins.check()
    assert got[0] == got[1] == [dict(
        start_ns=5_000_000_000 - _ON, duration_ns=_ON + 100_000,
        peak_queue_delay_ns=_ON, packets=2, port_id=0)]


@pytest.mark.parametrize("bits", [20, 32, 48])
def test_termination_after_a_timestamp_wrap_reports_sim_time(bits):
    """A flow claimed at t = 5 s, past the first wrap of a 20- or 32-bit
    clock, ends with a FIN 0.5 s later: ``flow_start`` holds the masked
    claim instant, so the report takes the start the long-flow digest
    announced -- sim time, and the true duration, on both paths."""
    twins = Twins(timestamp_bits=bits)
    terminations = []
    for mon in (twins.batched, twins.scalar):
        cp = MonitorControlPlane(mon.sim, mon, report_sink=Archiver().sink)
        cp.start()
        terminations.append(cp.terminations)
    twins.t = 5_000_000_000
    seq = twins.track(FT)             # claims at its second ingress copy
    twins.t = 5_500_000_000
    twins.transit(make_data_packet(FT, seq=seq, payload_len=600, ip_id=9,
                                   flags=TCPFlags.FIN | TCPFlags.ACK))
    twins.check()
    (batched,), (scalar,) = terminations
    assert batched == scalar
    assert (batched.start_ns, batched.end_ns) == (5_000_030_000, 5_500_010_000)
    assert batched.duration_ns == 499_980_000


def test_ecn_is_per_copy_and_headers_per_packet():
    """One Packet object mirrored at ingress and at egress in the same
    flush, CE-marked by the queue between the two mirror points."""
    twins = Twins()
    seq = twins.track(FT)
    pkt = make_data_packet(FT, seq=seq, payload_len=600, ip_id=9)
    pkt.ecn = Packet.ECN_ECT0
    twins.copy(pkt)
    pkt.ecn = Packet.ECN_CE
    twins.copy(pkt, TapDirection.EGRESS)
    twins.check()
    slot = crc32_tuple(FT) & (twins.batched.config.flow_slots - 1)
    assert twins.batched.queue.flow_ce.read(slot) == 1


def test_headers_are_read_at_the_mirror_instant():
    """A copy carries the headers its packet had when it was mirrored: a
    change to the shared Packet before the flush (its sequence number
    and its option length, hence its IP length) reaches neither path."""
    twins = Twins()
    seq = twins.track(FT)
    pkt = make_data_packet(FT, seq=seq, payload_len=600, ip_id=9)
    twins.copy(pkt)
    pkt.seq, pkt.tcp_options_len = seq + 6000, 12
    twins.copy(make_ack_packet(FT.reversed(), ack=seq + 600))
    twins.check()
    assert twins.batched.rtt_loss.rtt_matches == 1


def test_reverse_slot_shared_with_another_flows_forward_slot():
    """high_ack / flow_rwnd are written at the *reverse* flow's slot; when
    that is another tracked flow's forward slot the two must meet in one
    register file, not in two batch-local copies of the cell."""
    mask = 15
    other = next(
        ft for ft in (FiveTuple(0x0A000002, 0x0A010002, 41000 + i, 5201)
                      for i in range(4096))
        if crc32_tuple(ft) & mask == crc32_tuple(FT) & mask)
    assert other.reversed() != FT
    twins = Twins()
    seq = twins.track(FT)
    for k in range(3):
        # ``other``'s receiver ACKs: reverse slot == FT's forward slot.
        twins.copy(make_ack_packet(other.reversed(), ack=5000 + k,
                                   window=1000 + k))
        twins.transit(make_data_packet(FT, seq=seq, payload_len=600, ip_id=20 + k))
        seq += 600
        twins.copy(make_ack_packet(FT.reversed(), ack=seq))
    twins.check()
    slot = crc32_tuple(FT) & mask
    # last writer (FT's own ACK) and running maximum (``other``'s ACK)
    assert twins.batched.flight.flow_rwnd.read(slot) == 65535
    assert twins.batched.flight.high_ack.read(slot) == 5002 > seq


def test_termination_reads_loss_as_of_its_row():
    """Sequence regressions before and after a tracked flow's FIN in one
    flush: the control plane reads ``pkt_loss`` as the termination
    digest arrives, so the report counts the regression before the FIN
    only, while the register ends with both."""
    twins = Twins()
    terminations = []
    for mon in (twins.batched, twins.scalar):
        cp = MonitorControlPlane(mon.sim, mon, report_sink=Archiver().sink)
        cp.start()
        terminations.append(cp.terminations)
    seq = twins.track(FT)
    for k, (s, flags) in enumerate((
            (seq - 1200, TCPFlags.ACK),              # regression
            (seq, TCPFlags.FIN | TCPFlags.ACK),      # terminates the flow
            (seq - 600, TCPFlags.ACK))):             # regression
        twins.transit(make_data_packet(FT, seq=s, payload_len=600,
                                       flags=flags, ip_id=10 + k))
    twins.check()
    (batched,), (scalar,) = terminations
    assert batched == scalar
    assert batched.retransmissions == 1
    slot = crc32_tuple(FT) & (twins.batched.config.flow_slots - 1)
    assert (twins.batched.rtt_loss.pkt_loss.read(slot)
            == twins.scalar.rtt_loss.pkt_loss.read(slot) == 2)


# -- flow churn: no per-flow state survives a flush ---------------------------


def _churn_copies(flows: int, per_flow: int = 3):
    """Per flow: data segments crossing the switch (ingress + egress
    copy) and the receiver's ACK, interleaved across flows."""
    copies = []
    t = 1_000
    for f in range(flows):
        ft = FiveTuple(0x0A000001 + f, 0x0A010001, 40000 + (f % 20000), 5201)
        seq = 1
        for k in range(per_flow):
            pkt = make_data_packet(ft, seq=seq, payload_len=600, ip_id=k + 1)
            copies.append(MirrorCopy(pkt, TapDirection.INGRESS, t))
            copies.append(MirrorCopy(pkt, TapDirection.EGRESS, t + 2_000, 0))
            seq += 600
            ack = make_ack_packet(ft.reversed(), ack=seq)
            copies.append(MirrorCopy(ack, TapDirection.INGRESS, t + 50_000))
            t += 100_000
    return copies


def test_kernel_retains_no_per_flow_state_and_churn_stays_equivalent():
    """300 short flows through 16 slots: buffering a copy keeps no
    reference to its packet, after every flush the kernel holds no
    Python container that grew with the flows it saw, and state, stage
    counters and every register's op tally still equal the scalar
    twin's."""
    batched, scalar = _twin_monitor(True), _twin_monitor(False)
    kernel = batched.kernel
    copies = _churn_copies(300)
    per_flush = 90  # 10 flows per flush
    for i in range(0, len(copies), per_flush):
        for copy in copies[i:i + per_flush]:
            refs = sys.getrefcount(copy.pkt)
            batched.receive_copy(copy)
            kept = sys.getrefcount(copy.pkt) - refs
            assert kept == 0
            scalar.receive_copy(copy)
        batched.flush()
        assert {name: len(value) for name, value in vars(kernel).items()
                if isinstance(value, (dict, list, set, bytearray))} == {"buf": 0}
    assert batched.program.state_digest() == scalar.program.state_digest()
    assert batched.flow_table.slot_collisions > 0
    assert _tallies(batched) == _tallies(scalar)
    assert batched.pipeline.packets_in == len(copies)


def test_buffer_cap_is_the_kernels_constant():
    """One constant, owned by the kernel, bounds the buffer on the
    monitor's batched sink (the TAP's fast mirror path reads the same
    limit at bind time); callers count in copies, never in buffer cells."""
    monitor = _twin_monitor(True)
    cap = BatchKernel.BUFFER_CAP
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=1, payload_len=100)
    for i in range(cap - 1):
        monitor.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, i + 1))
    assert monitor.kernel.pending == cap - 1
    monitor.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, cap))
    assert monitor.kernel.pending == 0
    assert monitor.pipeline.packets_in == cap


# -- allocation discipline ------------------------------------------------------


def test_buffering_and_flushing_allocate_no_per_copy_container():
    """The cyclic collector is driven by net live tracked containers: a
    tuple per buffered copy (the layout this kernel replaced) cost 28
    collections for these 4000 copies and grew the tracked-object count
    by 4000; flat columns cost none."""
    monitor = _twin_monitor(True)
    copies = _churn_copies(445)[:4000]
    collections = []
    probe = lambda phase, info: phase == "stop" and collections.append(info)
    gc.collect()
    tracked = len(gc.get_objects())
    gc.callbacks.append(probe)
    try:
        for copy in copies:
            monitor.receive_copy(copy)
        grown = len(gc.get_objects()) - tracked
        monitor.flush()
    finally:
        gc.callbacks.remove(probe)
    assert monitor.pipeline.packets_in == 4000
    assert grown < 50
    assert len(collections) <= 2


# -- which observers keep the kernel -----------------------------------------


def _install_injector():
    faults.install(faults.FaultInjector(FaultSchedule()))


def _live(**overrides):
    def build():
        from repro.experiments.common import Scenario, ScenarioConfig
        scenario = Scenario(ScenarioConfig(monitor_overrides=overrides),
                            with_perfsonar=False)
        return scenario.monitor, scenario.topology.tap
    return build


def _offline():
    from repro.core.replay import OfflineAnalyzer
    return OfflineAnalyzer().monitor, None


@pytest.mark.parametrize("enable, disable, build, batched", [
    (lambda: profiling.enable(mode="phase"), profiling.disable, _live(), True),
    (_install_injector, faults.uninstall, _live(), True),
    (lambda: None, lambda: None, _offline, True),
    (provenance.enable, provenance.disable, _live(), False),
    (lambda: None, lambda: None, _live(rate_meter_enabled=True), False),
    (lambda: None, lambda: None, _live(batched_path=False), False),
], ids=["block-profiler", "fault-injector", "offline-replay",
        "tracer", "rate-meter", "batched-path-off"])
def test_only_per_packet_observers_bind_the_scalar_path(
        enable, disable, build, batched):
    """An observer re-routes the data plane only if it has to see each
    packet on its own.  The phase profiler and the fault injector do
    not: the kernel and the TAP's fast mirror path stay bound.  Neither
    does replaying a capture instead of tapping a live switch."""
    enable()
    try:
        mon, tap = build()
    finally:
        disable()
    assert (mon.kernel is not None) is batched
    if tap is not None:
        assert (tap._fast_buf is not None) is batched
        if batched:
            assert tap._fast_buf is mon.batch_buffer


def test_monitor_without_a_simulator_binds_the_scalar_path():
    assert P4Monitor(MonitorConfig()).kernel is None


# -- the kernel's structure -----------------------------------------------------


def _code_lines(source: str) -> int:
    """Lines holding a token other than a comment, a line break or an
    indent, less the lines of docstrings."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = {line
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in layout
             for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _name(node: ast.AST) -> str:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else "")


def _slots_less_one(node: ast.AST) -> bool:
    """``slots - 1`` / ``x.flow_slots - 1``: a slot mask being built."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and _name(node.left).endswith("slots")
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _scoped(tree: ast.AST, where: str = ""):
    """(``where`` + enclosing function name, node) for every node in a
    function."""
    for scope in ast.walk(tree):
        if isinstance(scope, ast.FunctionDef):
            for node in ast.walk(scope):
                yield where + scope.name, node


def _masked_in(tree: ast.AST, where: str = "") -> list:
    """The function around each ``x & mask``, ``x & y.mask`` or ``x &
    (slots - 1)`` -- not the power-of-two test ``n & (n - 1)``."""
    def masks(side, other):
        return _name(side) == "mask" or (
            _slots_less_one(side) and ast.dump(side.left) != ast.dump(other))
    return [scope for scope, node in _scoped(tree, where)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and (masks(node.left, node.right) or masks(node.right, node.left))]


def test_a_slot_is_computed_by_the_flow_table_or_hash_lanes_only():
    """Every module that reads per-flow registers reads the slot the flow
    table announced (``meta.flow_slot`` / ``rev_slot``, ``flow.slot`` /
    ``rslot``, the kernel's ``slot`` / ``rslot`` lanes): an ID is masked
    to its cell only in ``flow_table.slot_of`` and in ``hash_lanes``, and
    a slot mask is built only there, in ``config.py``'s power-of-two
    check and for the kernel's ``hash_lanes`` call."""
    package = Path(batch.__file__).parents[1]
    masked, built = [], []
    for sub in ("core", "validation", "experiments", "resilience"):
        for path in sorted((package / sub).rglob("*.py")):
            where = f"{path.relative_to(package).as_posix()}:"
            tree = ast.parse(path.read_text())
            masked += _masked_in(tree, where)
            built += [scope for scope, node in _scoped(tree, where)
                      if _slots_less_one(node)]
    assert masked == ["core/batch.py:hash_lanes"] * 2 + [
        "core/flow_table.py:slot_of"]
    assert built == ["core/batch.py:__init__", "core/config.py:validate",
                     "core/flow_table.py:slot_of"]


def test_flush_drives_one_short_unit_per_scalar_stage():
    """``flush`` is a short driver, no function in ``core/batch.py`` runs
    over 80 lines and the file has at most 515 code lines; flow IDs are
    masked to slots once, in ``hash_lanes``; each replay unit's
    registers are exactly one scalar stage's, no register is in two
    units, and together the units cover every register the program
    declares."""
    source = Path(batch.__file__).read_text()
    assert _code_lines(source) <= 515
    assert _masked_in(ast.parse(source)) == ["hash_lanes", "hash_lanes"]
    lengths = {}
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        for node in scope.body:
            if isinstance(node, ast.FunctionDef):
                name = f"{getattr(scope, 'name', '')}.{node.name}".lstrip(".")
                lengths[name] = node.end_lineno - node.lineno + 1
    assert lengths["BatchKernel.flush"] <= 40
    assert {name: n for name, n in lengths.items() if n > 80} == {}

    monitor = _twin_monitor(True)
    units = monitor.kernel.units
    assert len({id(unit.stage) for unit in units}) == len(units) == 5
    for unit in units:
        declared = {value for value in vars(unit.stage).values()
                    if isinstance(value, RegisterArray)}
        assert set(unit.registers) == declared, type(unit).__name__
    owned = [reg for unit in units for reg in unit.registers]
    assert len(owned) == len(set(owned))
    assert set(owned) == set(monitor.program.registers.values())
