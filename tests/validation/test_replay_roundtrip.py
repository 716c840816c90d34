"""Record -> serialize -> replay -> identical data-plane state.

A live validation run records every mirror copy through a
:class:`CopyRecorder` tee; replaying those copies through a fresh
:class:`OfflineAnalyzer` (same :class:`MonitorConfig`, same virtual
clock discipline) must end in *bit-identical* register/sketch/counter
state — ``state_digest()`` equality — including after a JSON
round-trip of the capture.  This is the determinism guarantee the
fuzzer's shrink artifacts rely on.
"""

from __future__ import annotations

import json
from functools import partialmethod

import pytest

from repro.core.replay import OfflineAnalyzer
from repro.validation.capture import (
    CopyRecorder,
    copies_from_jsonable,
    copy_from_jsonable,
    copy_to_jsonable,
)
from repro.netsim.packet import Packet, TCPFlags
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.topology import ScienceDMZTopology
from repro.validation.scenarios import ScenarioSpec


@pytest.fixture(scope="module")
def recorded_run():
    """Seed-2 live run with a recorder tee on the TAP sink."""
    spec = ScenarioSpec.from_seed(2)
    recorder = CopyRecorder()
    run = spec.build(copy_recorder=recorder)
    run.run()
    return spec, run, recorder


def _offline(spec, run, copies) -> OfflineAnalyzer:
    analyzer = OfflineAnalyzer(config=run.scenario.monitor.config.copy())
    end_ns = int(spec.end_s * 1e9)
    last_ts = max(c.timestamp_ns for c in copies)
    return analyzer.replay(copies, trailer_ns=end_ns - last_ts)


def _offline_digest(spec, run, copies) -> str:
    return _offline(spec, run, copies).monitor.program.state_digest()


def test_offline_replay_reaches_identical_state(recorded_run):
    spec, run, recorder = recorded_run
    live_digest = run.scenario.monitor.program.state_digest()
    assert recorder.copies, "tee recorded nothing"
    assert _offline_digest(spec, run, recorder.copies) == live_digest


def test_offline_replay_survives_json_round_trip(recorded_run):
    spec, run, recorder = recorded_run
    live_digest = run.scenario.monitor.program.state_digest()
    text = json.dumps(recorder.to_jsonable())
    copies = copies_from_jsonable(json.loads(text))
    assert len(copies) == len(recorder)
    assert _offline_digest(spec, run, copies) == live_digest


def test_offline_replay_matches_live_on_a_two_port_tap(monkeypatch):
    """The egress port id is part of the record: with every switch port
    tapped, the per-port microburst registers (``mb_*``) only match the
    live run if replay feeds each copy back through its own port —
    directly and after the JSON round trip."""
    monkeypatch.setattr(
        ScienceDMZTopology, "attach_tap",
        partialmethod(ScienceDMZTopology.attach_tap, all_egress_ports=True))
    spec = ScenarioSpec.from_seed(2)
    recorder = CopyRecorder()
    run = spec.build(copy_recorder=recorder)
    run.run()
    assert len({c.egress_port_id for c in recorder.copies}) > 1
    live_digest = run.scenario.monitor.program.state_digest()
    assert _offline_digest(spec, run, recorder.copies) == live_digest
    copies = copies_from_jsonable(json.loads(json.dumps(recorder.to_jsonable())))
    assert _offline_digest(spec, run, copies) == live_digest


def test_offline_replay_runs_on_the_batched_kernel(recorded_run, monkeypatch):
    """Replay feeds the monitor's bound intake: the kernel stays engaged
    and flushes at extraction ticks and the buffer cap, not per copy."""
    from repro.core.batch import BatchKernel

    flushes = []
    flush = BatchKernel.flush
    monkeypatch.setattr(BatchKernel, "flush",
                        lambda kernel: (flushes.append(1), flush(kernel))[1])
    spec, run, recorder = recorded_run
    analyzer = _offline(spec, run, recorder.copies)
    assert analyzer.monitor.kernel is not None
    assert analyzer.monitor.pipeline.packets_in == len(recorder)
    assert 0 < len(flushes) < 0.05 * len(recorder)


def test_copy_json_round_trip_preserves_every_field():
    pkt = Packet(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1234,
                 dst_port=5201, seq=17, ack=99, window=4096,
                 flags=TCPFlags.ACK | TCPFlags.PSH, payload_len=512,
                 sack=[(100, 200), (300, 400)], ecn=1, ttl=63)
    copy = MirrorCopy(pkt, TapDirection.EGRESS, 1_000_000)
    back = copy_from_jsonable(json.loads(json.dumps(copy_to_jsonable(copy))))
    assert back.timestamp_ns == 1_000_000
    assert back.direction is TapDirection.EGRESS
    for fld in ("src_ip", "dst_ip", "src_port", "dst_port", "seq", "ack",
                "window", "flags", "payload_len", "ecn", "ttl",
                "ip_total_len"):
        assert getattr(back.pkt, fld) == getattr(pkt, fld), fld
    assert tuple(back.pkt.sack) == ((100, 200), (300, 400))


def test_copy_json_keeps_the_ecn_of_the_tap_instant():
    """A queue CE-marks the shared packet after the mirror point; the
    capture records the codepoint the copy carried."""
    pkt = Packet(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1234,
                 dst_port=5201, payload_len=512, ecn=Packet.ECN_ECT1)
    copy = MirrorCopy(pkt, TapDirection.EGRESS, 1_000, egress_port_id=2)
    pkt.ecn = Packet.ECN_CE
    back = copy_from_jsonable(json.loads(json.dumps(copy_to_jsonable(copy))))
    assert (back.ecn, back.pkt.ecn, back.egress_port_id) == (1, 1, 2)


def test_recorder_does_not_perturb_the_run():
    """The tee must be invisible: a recorded run and an unrecorded run of
    the same spec end in the same data-plane state."""
    spec = ScenarioSpec.from_seed(4)
    plain = spec.build()
    plain.run()
    teed = ScenarioSpec.from_seed(4).build(copy_recorder=CopyRecorder())
    teed.run()
    assert (plain.scenario.monitor.program.state_digest()
            == teed.scenario.monitor.program.state_digest())
