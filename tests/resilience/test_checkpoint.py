"""Checkpoint capture/restore: array codec, content-digested store,
retention, corrupt-file fallback, data-plane and control-plane restore
fidelity, manager rate limiting."""

import json

import numpy as np
import pytest

from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.archiver import Archiver
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointManager,
    CheckpointStore,
    _decode_array,
    _encode_array,
    capture_checkpoint,
    content_digest,
    restore_control_plane,
    restore_dataplane,
)

from tests.core.helpers import FlowScript, small_monitor

MS = 1_000_000


# -- codec ---------------------------------------------------------------------


@pytest.mark.parametrize("arr", [
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.linspace(0.0, 1.0, 7),
    np.zeros((2, 3, 4), dtype=np.uint32),
    np.array([], dtype=np.int32),
])
def test_array_codec_round_trip(arr):
    out = _decode_array(_encode_array(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_content_digest_detects_tamper():
    doc = {"schema": CHECKPOINT_SCHEMA, "seq": 0, "payload": [1, 2, 3]}
    digest = content_digest(doc)
    assert content_digest({**doc, "digest": digest}) == digest, \
        "the digest field itself is excluded from the digest"
    assert content_digest({**doc, "payload": [1, 2, 4]}) != digest


# -- store ---------------------------------------------------------------------


def _doc(seq):
    return {"schema": CHECKPOINT_SCHEMA, "seq": seq, "time_ns": seq * 10}


def test_store_writes_are_digested_and_ordered(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(3):
        store.write(_doc(seq))
    paths = store.paths()
    assert [p.split("checkpoint-")[-1] for p in paths] == [
        "00000000.json", "00000001.json", "00000002.json"]
    assert store.latest()["seq"] == 2
    loaded = store.load(paths[0])
    assert loaded["digest"] == content_digest(loaded)


def test_store_prunes_beyond_retention(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=2)
    for seq in range(5):
        store.write(_doc(seq))
    assert len(store.paths()) == 2
    assert store.pruned == 3
    assert store.latest()["seq"] == 4


def test_store_rejects_bad_retention(tmp_path):
    with pytest.raises(ValueError):
        CheckpointStore(str(tmp_path), retain=0)


def test_latest_skips_torn_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(3):
        store.write(_doc(seq))
    newest = store.paths()[-1]
    # Tear the newest file mid-document, the way a crash mid-write
    # without the atomic-rename discipline would.
    with open(newest, "w", encoding="utf-8") as fh:
        fh.write('{"schema": "repro-checkpoint-v1", "seq": 2, "tr')
    assert store.latest()["seq"] == 1


def test_latest_skips_tampered_newest(tmp_path):
    store = CheckpointStore(str(tmp_path), retain=4)
    for seq in range(2):
        store.write(_doc(seq))
    newest = store.paths()[-1]
    doc = json.loads(open(newest).read())
    doc["time_ns"] = 999_999            # silent bit-flip, stale digest
    with open(newest, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert store.latest()["seq"] == 0


def test_latest_none_when_empty(tmp_path):
    assert CheckpointStore(str(tmp_path)).latest() is None


# -- data-plane restore --------------------------------------------------------


def _populated_cp(sim=None):
    """A control plane over a monitor with real register state, shipping
    into an archive."""
    sim = sim or Simulator()
    monitor = small_monitor(histograms_enabled=True, forensics_enabled=True)
    cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
    script = FlowScript(monitor)
    script.make_long()
    for i in range(8):
        t = 1_000_000 + i * 500_000
        script.transit(seq=1000 + i * 1448, length=1448,
                       t_in=t, t_out=t + 200_000)
        script.ack(ack=1000 + (i + 1) * 1448, t_ns=t + 400_000)
    return cp, monitor


def test_dataplane_restore_round_trips_digest():
    cp, monitor = _populated_cp()
    doc = capture_checkpoint(cp)
    assert doc["dataplane_digest"] == monitor.program.state_digest()

    fresh = small_monitor(histograms_enabled=True, forensics_enabled=True)
    assert fresh.program.state_digest() != doc["dataplane_digest"], \
        "the scripted traffic must actually have mutated registers"
    digest = restore_dataplane(fresh.program, doc)
    assert digest == doc["dataplane_digest"]
    # Extern tallies (not part of the register digest) restore too.
    assert fresh.queue.time_windows.ops == monitor.queue.time_windows.ops
    assert fresh.rtt_loss.rtt_hist.ops == monitor.rtt_loss.rtt_hist.ops


def test_dataplane_restore_rejects_wrong_digest():
    cp, _ = _populated_cp()
    doc = capture_checkpoint(cp)
    doc["dataplane_digest"] = "0" * 64
    with pytest.raises(ValueError, match="digest"):
        restore_dataplane(small_monitor(histograms_enabled=True,
                                        forensics_enabled=True).program, doc)


def test_restore_rejects_wrong_schema():
    cp, _ = _populated_cp()
    doc = capture_checkpoint(cp)
    doc["schema"] = "something-else"
    with pytest.raises(ValueError, match="schema"):
        restore_control_plane(cp, doc)


# -- control-plane restore -----------------------------------------------------


def test_control_plane_restore_fidelity():
    sim = Simulator()
    cp, monitor = _populated_cp(sim)
    cp.start()
    sim.run_until(seconds(2.5))        # a few extraction ticks
    cp.stop()
    doc = capture_checkpoint(cp)

    # The archive outlives the crash: the restarted process ships into it.
    sim2 = Simulator()
    fresh = small_monitor(histograms_enabled=True, forensics_enabled=True)
    cp2 = MonitorControlPlane(sim2, fresh, report_sink=cp.report_sink)
    restore_control_plane(cp2, doc)

    assert set(cp2.flows) == set(cp.flows)
    for fid, flow in cp.flows.items():
        assert cp2.flows[fid] == flow
    assert cp2.alerts._active.keys() == cp.alerts._active.keys()
    assert len(cp2.alerts.history) == len(cp.alerts.history)
    assert any(cp.flow_samples.values()) and cp.jitter_samples
    assert cp2.tallies == cp.tallies
    for kind, samples in cp.flow_samples.items():
        # Restored as tallies, over the archive the reports are in.
        assert len(cp2.flow_samples[kind]) == len(samples) == len(list(samples))
        assert list(cp2.flow_samples[kind]) == list(samples)
    assert len(cp2.jitter_samples) == len(cp.jitter_samples) == len(list(cp.jitter_samples))
    assert list(cp2.jitter_samples) == list(cp.jitter_samples)
    assert list(cp2.limiter_reports) == list(cp.limiter_reports)
    assert list(cp2.aggregate_samples) == list(cp.aggregate_samples)
    assert cp2.reports_suppressed == cp.reports_suppressed
    assert cp2.degraded == cp.degraded
    # Cursors are parked for the first post-restart tick to window over
    # the true elapsed time.
    assert cp2._resume_cursors == cp.last_extraction_ns
    if cp.histograms is not None:
        assert np.array_equal(cp2.histograms.rtt_cumulative,
                              cp.histograms.rtt_cumulative)
        assert cp2.histograms.ticks == cp.histograms.ticks
    if cp.forensics is not None:
        assert cp2.forensics.index == cp.forensics.index
        assert cp2.forensics.extracted_pkts == cp.forensics.extracted_pkts


def _stream(sim, monitor, start_s, stop_s):
    """A segment every 20 ms crossing the tapped switch, ACKed 5 ms on."""
    script, t = FlowScript(monitor), seconds(start_s)
    while t < seconds(stop_s):
        seq = 1 + t // 10_000
        sim.at(t, script.transit, seq, 1448, t, t + 200_000)
        sim.at(t + 5 * MS, script.ack, seq + 1448, t + 5 * MS)
        t += 20 * MS


def _streaming_world(**monitor):
    sim = Simulator()
    mon = small_monitor(**monitor)
    for kind in MetricKind:
        mon.config.metric(kind).samples_per_second = 10.0
    return sim, mon


def test_a_restored_control_plane_counts_on_over_its_archive():
    """A checkpoint keeps a tally per report type, not the reports: a
    restore reads the same streams back from the archive, captures the
    same tallies again, and goes on shipping after the restored ones."""
    def logs(c):
        return [*c.flow_samples.values(), c.jitter_samples, c.limiter_reports]

    sim, monitor = _streaming_world(histograms_enabled=True, forensics_enabled=True)
    archiver = Archiver()
    cp = MonitorControlPlane(sim, monitor, report_sink=archiver.sink)
    cp.start()
    _stream(sim, monitor, 0.01, 2.5)
    sim.run_until(seconds(2.5))
    cp.stop()
    assert len(cp.flow_samples[MetricKind.RTT]) > 20 and len(cp.jitter_samples) > 20
    doc = json.loads(json.dumps(capture_checkpoint(cp)))
    assert "archives" not in doc["control_plane"]

    sim2 = Simulator()
    sim2.run_until(doc["time_ns"])
    _, monitor2 = _streaming_world(histograms_enabled=True, forensics_enabled=True)
    restore_dataplane(monitor2.program, doc)
    cp2 = MonitorControlPlane(sim2, monitor2, report_sink=archiver.sink)
    restore_control_plane(cp2, doc)
    restored = [list(log) for log in logs(cp2)]
    assert restored == [list(log) for log in logs(cp)]
    assert [len(log) for log in logs(cp2)] == list(map(len, restored))
    again = json.loads(json.dumps(capture_checkpoint(cp2)))
    assert again["control_plane"]["tallies"] == doc["control_plane"]["tallies"]

    cp2.start()
    _stream(sim2, monitor2, 2.5, 3.5)
    sim2.run_until(seconds(3.5))
    cp2.stop()
    for log, before in zip(logs(cp2), restored):
        n = len(before)
        assert len(log) > n and list(log)[:n] == before and len(list(log)) == len(log)
        assert log[n].time_ns > before[-1].time_ns


def test_checkpoint_bytes_do_not_grow_with_run_length():
    """One flow streaming, captured at two lengths: the longer run holds
    at least twice the shipped samples, in the same number of bytes to
    within 5 %.  What a checkpoint still carries that grows with a run
    is the alert history (none here: nothing alerts), the forensics
    window index (bounded by its retention) and the shipper's books (no
    shipper here)."""
    sizes, shipped = [], []
    for stop_s in (2.0, 5.0):
        sim, monitor = _streaming_world(histograms_enabled=True, forensics_enabled=True)
        cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
        cp.start()
        _stream(sim, monitor, 0.01, stop_s)
        sim.run_until(seconds(stop_s))
        cp.stop()
        assert len(cp.flows) == 1 and not cp.alerts.history
        sizes.append(len(json.dumps(capture_checkpoint(cp))))
        shipped.append(sum(map(len, cp.flow_samples.values())))
    assert shipped[1] >= 2 * shipped[0]
    assert abs(sizes[1] - sizes[0]) < 0.05 * sizes[0], sizes


def test_checkpoint_document_is_json_round_trippable():
    sim = Simulator()
    cp, _ = _populated_cp(sim)
    cp.start()
    sim.run_until(seconds(1.5))
    cp.stop()
    doc = capture_checkpoint(cp, seq=3)
    wire = json.dumps(doc, sort_keys=True)
    back = json.loads(wire)
    assert back["seq"] == 3
    cp2 = MonitorControlPlane(Simulator(),
                              small_monitor(histograms_enabled=True, forensics_enabled=True))
    restore_control_plane(cp2, back)   # decoded JSON restores identically
    assert set(cp2.flows) == set(cp.flows)


# -- manager -------------------------------------------------------------------


def test_manager_rate_limits_by_min_interval(tmp_path):
    sim = Simulator()
    cp, _ = _populated_cp(sim)
    manager = CheckpointManager(CheckpointStore(str(tmp_path)),
                                min_interval_ns=500 * MS)
    manager.on_tick(cp)                # first capture always lands
    manager.on_tick(cp)                # same instant: rate-limited
    assert (manager.captures, manager.skipped) == (1, 1)
    sim.run_until(600 * MS)
    manager.on_tick(cp)
    assert (manager.captures, manager.skipped) == (2, 1)
    assert manager.age_ns(sim.now) == 0
    assert manager.store.latest()["seq"] == 1


def test_manager_resumes_numbering_from_the_store(tmp_path):
    # Regression: a fresh manager over a non-empty directory (a new run
    # sharing a checkpoint dir, or a restarted process) must continue
    # the numbering — restarting at 0 would leave a *stale* prior-run
    # checkpoint as the newest, and recovery would restore alien state.
    store = CheckpointStore(str(tmp_path))
    for seq in range(3):
        store.write(_doc(seq))
    manager = CheckpointManager(CheckpointStore(str(tmp_path)))
    assert manager.seq == 3
    cp, _ = _populated_cp()
    manager.on_tick(cp)
    assert manager.store.latest()["seq"] == 3


def test_manager_capture_on_every_destructive_step(tmp_path):
    from repro.resilience import checkpoint

    manager = checkpoint.install_manager(CheckpointManager(
        CheckpointStore(str(tmp_path), retain=2)))
    sim = Simulator()
    cp, _ = _populated_cp(sim)          # binds the installed manager
    assert cp._ckpt is manager
    cp.start()
    sim.run_until(seconds(2.5))
    cp.stop()
    assert manager.captures > 0
    assert len(manager.store.paths()) <= 2
    assert manager.store.latest()["seq"] == manager.seq - 1
