"""A flow slot's life: claim -> (FIN linger ->) release -> the next claim.

Two slots, so every scripted flow lands on one of them and a second long
flow meets whatever the first one left behind.  Each case runs on the
batched kernel and on the scalar pipeline: release is control-plane
work, and both data planes must see its effect.
"""

from __future__ import annotations

import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, TCPFlags, make_data_packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.units import millis, seconds
from repro.p4.hashes import crc32_tuple
from repro.perfsonar.archiver import Archiver

SEG = 1000


def _tuples_on_one_slot(n: int):
    """``n`` five-tuples whose flow IDs share a slot of the two."""
    found, port = [], 40000
    while len(found) < n:
        port += 1
        ft = FiveTuple(0x0A00000A, 0x0A01000A, port, 5201)
        if crc32_tuple(ft) & 1 == 0:
            found.append(ft)
    return found


A, B, C = _tuples_on_one_slot(3)


class World:
    def __init__(self, batched: bool) -> None:
        self.sim = Simulator()
        self.mon = P4Monitor(
            MonitorConfig(flow_slots=2, long_flow_bytes=3000,
                          batched_path=batched), sim=self.sim)
        assert (self.mon.kernel is not None) == batched
        self.cp = MonitorControlPlane(self.sim, self.mon, report_sink=Archiver().sink)
        self.cp.start()
        self._ip_id = 0

    def send(self, ft: FiveTuple, t: int, seqs, fin: bool = False) -> None:
        """One ingress copy per sequence number, 1 ms apart from ``t``,
        then (``fin``) a bare FIN."""
        for seq in seqs:
            self._copy(ft, t, seq, SEG, TCPFlags.ACK)
            t += millis(1)
        if fin:
            self._copy(ft, t, seqs[-1] + SEG, 0, TCPFlags.FIN | TCPFlags.ACK)

    def _copy(self, ft, t, seq, length, flags) -> None:
        self._ip_id += 1
        pkt = make_data_packet(ft, seq=seq, payload_len=length, flags=flags,
                               ip_id=self._ip_id)
        self.sim.at(t, self.mon.receive_copy,
                    MirrorCopy(pkt, TapDirection.INGRESS, t, 0))

    def flow(self, ft: FiveTuple):
        return self.cp.flows.get(crc32_tuple(ft))

    def register(self, name: str) -> int:
        """The cell of ``name`` under the shared slot (slot 0)."""
        self.mon.flush()
        return self.mon.program.registers[name].read(0)


@pytest.fixture(params=[True, False], ids=["batched", "scalar"])
def world(request) -> World:
    return World(request.param)


def _segments(isn: int, n: int = 10):
    return [isn + i * SEG for i in range(n)]


def test_recycled_slot_does_not_inherit_prev_seq(world):
    """A's last sequence number must not outlive A: every segment of the
    next owner below it would count as a retransmission."""
    high = _segments(3_000_000_000)
    world.send(A, seconds(1), high + high[4:7])       # 3 retransmissions
    world.sim.run_until(seconds(30))                  # A idles out
    assert world.flow(A).evicted and world.register("pkt_loss") == 3
    assert world.register("prev_seq") == 0

    low = _segments(1_000)
    world.send(B, seconds(60), low)                   # lossless, lower ISN
    world.sim.run_until(seconds(63))
    assert world.flow(B) is not None and not world.flow(B).terminated
    assert world.register("pkt_loss") == 3            # 13 before the fix
    assert world.register("prev_seq") == low[-1]
    # pkt_loss is left to its readers (docs/robustness.md), so B's first
    # loss sample still carries A's total; every later one is B's own.
    later = [s.value for s in world.cp.flow_samples[MetricKind.PACKET_LOSS]
             if s.flow_id == crc32_tuple(B)][1:]
    assert later and set(later) == {0.0}


def test_fin_ended_flow_frees_its_slot(world):
    """A terminated flow lingers for the idle allowance, then its slot is
    released: the next long flow is learned, not counted as a collision."""
    world.send(A, seconds(1), _segments(5_000), fin=True)
    world.sim.run_until(seconds(5))
    a = world.flow(A)
    assert a.terminated and not a.evicted             # lingering
    assert world.register("flow_key") == a.flow_id
    assert len(world.cp.terminations) == 1

    world.sim.run_until(seconds(60))
    assert a.evicted and world.register("flow_key") == 0
    world.send(B, seconds(60), _segments(9_000, 20))
    world.sim.run_until(seconds(63))
    assert world.mon.flow_table.slot_collisions == 0  # 20 before the fix
    assert world.flow(B) is not None
    # Nothing was shipped for A after its termination report.
    assert len(world.cp.terminations) == 1
    assert not [s for log in world.cp.flow_samples.values() for s in log
                if s.flow_id == a.flow_id and s.time_ns > seconds(2)]


def test_three_flows_take_one_slot_in_turn(world):
    """Idle release, FIN release, then a third owner: each is learned on
    a clean slot and counts only its own packets."""
    world.send(A, seconds(1), _segments(4_000_000_000))
    world.sim.run_until(seconds(30))
    world.send(B, seconds(30), _segments(2_000_000_000), fin=True)
    world.sim.run_until(seconds(60))
    assert world.flow(A).evicted and world.flow(B).evicted
    world.send(C, seconds(60), _segments(7))
    world.sim.run_until(seconds(63))

    assert [f.flow_id for f in world.cp.flows.values()] == [
        crc32_tuple(ft) for ft in (A, B, C)]
    assert world.mon.flow_table.slot_collisions == 0
    assert world.register("pkt_loss") == 0
    assert world.register("flow_key") == crc32_tuple(C)
    # The third segment crosses the 3,000-byte threshold and claims.
    assert world.register("flow_pkts") == 8
    assert world.register("flow_bytes") == 8 * (SEG + 40)
