"""Derived jitter metric (RFC 3550 smoothing over RTT samples)."""

import pytest

from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver

from tests.core.helpers import FlowScript, document_sink, small_monitor


def drive_rtts(sim, script, rtts_ms, spacing_s=1.0):
    """One data+ack exchange per control interval with scripted RTTs."""
    seq = 1
    for i, rtt in enumerate(rtts_ms):
        t = seconds(0.2 + i * spacing_s)
        sim.at(t, script.data, seq, 1000, t)
        sim.at(t + millis(rtt), script.ack, seq + 1000, t + millis(rtt))
        seq += 1000


def run(rtts_ms):
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=500)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    cp.start()
    script = FlowScript(mon)
    drive_rtts(sim, script, rtts_ms)
    sim.run_until(seconds(len(rtts_ms) + 1.0))
    return cp


def test_constant_rtt_yields_zero_jitter():
    cp = run([20.0] * 8)
    assert cp.jitter_samples
    for s in cp.jitter_samples:
        assert s.value == pytest.approx(0.0, abs=1e-6)


def test_varying_rtt_yields_positive_jitter():
    cp = run([20.0, 40.0, 20.0, 40.0, 20.0, 40.0, 20.0, 40.0])
    assert cp.jitter_samples
    assert cp.jitter_samples[-1].value > 1.0


def test_jitter_smoothing_converges_toward_mean_delta():
    deltas = [20.0, 40.0] * 30
    cp = run(deltas)
    # RFC 3550: J converges toward the mean |delta| (=20) / but divided
    # over the 1/16 gain it approaches it from below; just check a sane
    # band after many samples.
    final = cp.jitter_samples[-1].value
    assert 5.0 < final <= 20.5


def test_jitter_documents_shipped():
    docs = []
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=500)
    cp = MonitorControlPlane(sim, mon, report_sink=document_sink(docs))
    cp.start()
    script = FlowScript(mon)
    drive_rtts(sim, script, [10.0, 30.0, 10.0, 30.0])
    sim.run_until(seconds(6))
    jitter_docs = [d for d in docs if d.get("type") == "p4_jitter"]
    assert jitter_docs
    assert all("value" in d for d in jitter_docs)
