"""Histogram subsystem end-to-end at the core layer: data-plane binning
on the eACK/TAP match paths, the control-plane extraction tick, shipped
``repro-histogram-v1`` reports, change-point alerts with provenance
freezing, and the watch/flight-recorder surfaces.

Driven with scripted packets (no TCP), so every expected bin is exact.
"""

import pytest

from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.histograms import (
    SHIFT_THRESHOLD, render_bins, render_percentiles, tv_distance)
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.units import millis, seconds

from tests.core.helpers import FlowScript, document_sink, small_monitor


def hist_monitor(**overrides) -> P4Monitor:
    overrides.setdefault("histograms_enabled", True)
    overrides.setdefault("long_flow_bytes", 1000)
    return small_monitor(**overrides)


@pytest.fixture
def assembly():
    sim = Simulator()
    mon = hist_monitor()
    shipped = []
    cp = MonitorControlPlane(sim, mon, report_sink=document_sink(shipped))
    cp.start()
    return sim, mon, cp, shipped


def drive_rtt(sim, script, n, rtt_ms, start_s=0.1, spacing_ms=20.0,
              seq0=1, seg=1000):
    """n data packets, each ACKed exactly rtt_ms later."""
    t0 = seconds(start_s)
    seq = seq0
    for i in range(n):
        t = t0 + int(i * millis(spacing_ms))
        sim.at(t, script.data, seq, seg, t)
        sim.at(t + millis(rtt_ms), script.ack, seq + seg, t + millis(rtt_ms))
        seq += seg


def test_dataplane_bins_rtt_under_ack_direction_slot(assembly):
    sim, mon, cp, _ = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_rtt(sim, script, n=20, rtt_ms=5.0)
    sim.run_until(seconds(1))
    hist = mon.rtt_loss.rtt_hist
    idx = script.rev_flow_id & (mon.config.flow_slots - 1)
    ext = cp.histograms
    row = ext.rtt_cumulative[idx] + hist.snapshot()[idx]
    assert int(row.sum()) == 20
    # All 20 samples are exactly 5 ms; one bin holds everything.
    assert int(row.max()) == 20


def test_qdepth_hist_bins_matched_tap_pairs():
    sim = Simulator()
    mon = hist_monitor()
    script = FlowScript(mon)
    # Ingress + egress copies 2 ms apart -> one 2 ms queue-delay sample.
    script.transit(seq=1, length=1000, t_in=1000, t_out=1000 + millis(2))
    hist = mon.queue.qdepth_hist
    assert hist.snapshot().sum() == 1
    assert mon.queue.pairs_matched == 1


def test_extraction_ships_flow_and_all_reports(assembly):
    sim, mon, cp, shipped = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_rtt(sim, script, n=30, rtt_ms=5.0)
    sim.run_until(seconds(3))
    docs = [d for d in shipped if isinstance(d, dict)
            and d.get("type") == "repro-histogram-v1"]
    flow_docs = [d for d in docs if d.get("scope") == "flow"]
    all_docs = [d for d in docs if d.get("scope") == "all"]
    assert flow_docs and all_docs
    last = max(flow_docs, key=lambda d: d["@timestamp"])
    assert last["flow_id"] == script.flow_id
    assert last["count"] == 30
    assert sum(last["counts"]) == last["count"]
    # 5 ms RTT: every percentile is the same (one) bucket's upper bound.
    assert last["p50_ms"] == last["p99_ms"]
    assert 5.0 <= last["p50_ms"] <= 7.0
    assert cp.histogram_reports  # the tally counts the shipped docs


def test_no_new_samples_means_no_new_reports(assembly):
    sim, mon, cp, shipped = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_rtt(sim, script, n=10, rtt_ms=5.0)
    sim.run_until(seconds(2))
    n = len(cp.histogram_reports)
    sim.run_until(seconds(6))  # idle: ticks fire, windows are empty
    assert len(cp.histogram_reports) == n
    assert cp.histograms.ticks >= 5


def test_change_point_alert_and_provenance_freeze():
    from repro.telemetry import provenance

    tracer = provenance.enable(triggers=("alert",))
    try:
        sim = Simulator()
        mon = hist_monitor(histogram_min_samples=8)
        shipped = []
        cp = MonitorControlPlane(sim, mon, report_sink=document_sink(shipped))
        cp.start()
        script = FlowScript(mon)
        sim.at(seconds(0.05), script.make_long, seconds(0.05))
        # Window A: tight 5 ms RTTs; window B (two ticks later): 400 ms.
        drive_rtt(sim, script, n=20, rtt_ms=5.0, start_s=0.1)
        drive_rtt(sim, script, n=20, rtt_ms=400.0, start_s=2.1, seq0=100_001)
        sim.run_until(seconds(5))
        ext = cp.histograms
        assert ext.change_points, "distribution shift not detected"
        alert = ext.change_points[0]
        assert alert.metric == "rtt_distribution"
        assert alert.value > SHIFT_THRESHOLD
        alert_docs = [d for d in shipped if isinstance(d, dict)
                      and d.get("type") == "p4_alert"
                      and d.get("metric") == "rtt_distribution"]
        assert alert_docs
        assert any(d.reason == "alert" for d in tracer.dumps), \
            "change point did not freeze the fine provenance window"
    finally:
        provenance.disable()


def test_identical_windows_raise_no_change_point(assembly):
    sim, mon, cp, _ = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    # Steady 5 ms RTTs across many extraction windows.
    drive_rtt(sim, script, n=200, rtt_ms=5.0, spacing_ms=25.0)
    sim.run_until(seconds(6))
    assert cp.histograms.ticks >= 4
    assert not cp.histograms.change_points


def test_tv_distance_bounds():
    import numpy as np
    a = np.array([10, 0, 0], dtype=np.uint64)
    b = np.array([0, 0, 10], dtype=np.uint64)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == 1.0
    assert tv_distance(a, np.zeros(3, dtype=np.uint64)) == 0.0


def test_watch_line_summarises_p99(assembly):
    sim, mon, cp, _ = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_rtt(sim, script, n=30, rtt_ms=5.0)
    sim.run_until(seconds(3))
    ext = cp.histograms
    line = ext.watch_line()
    assert line is not None and line.startswith("p99 RTT: all ")
    assert f"{script.flow_id & 0xFFFFFF:06x} " in line


def test_degraded_mode_still_ships_histograms(assembly):
    sim, mon, cp, shipped = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_rtt(sim, script, n=30, rtt_ms=5.0)
    cp.set_degraded(True)
    sim.run_until(seconds(8))
    docs = [d for d in shipped if isinstance(d, dict)
            and d.get("type") == "repro-histogram-v1"]
    # Distribution summaries are the aggregate view; degraded mode only
    # suppresses per-flow scalar streams.
    assert docs


def test_stop_cancels_the_histogram_timer(assembly):
    sim, mon, cp, _ = assembly
    sim.run_until(seconds(2))
    ticks = cp.histograms.ticks
    cp.stop()
    sim.run_until(seconds(6))
    assert cp.histograms.ticks == ticks


def test_disabled_config_builds_no_extractor():
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon)
    assert mon.rtt_loss.rtt_hist is None
    assert mon.queue.qdepth_hist is None
    assert cp.histograms is None


def test_render_helpers():
    out = render_bins((1_000_000, 10_000_000), (2, 8, 0))
    assert "#" in out and "8" in out
    assert render_bins((1_000_000,), (0, 0)) == "  (no samples)"
    table = render_percentiles([{
        "label": "rtt all", "count": 10, "p50_ms": 1.0, "p90_ms": 2.0,
        "p99_ms": 3.0, "p999_ms": 4.0}])
    assert "rtt all" in table and "p99.9" in table
