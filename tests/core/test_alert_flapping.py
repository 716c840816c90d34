"""Alert hysteresis under flapping inputs.

A metric oscillating across its threshold must produce a clean
raise/clear/raise sequence — one notification per crossing, never a
duplicate while the alert is active — and the boosted sampling rate
must engage on each raise and restore on each clear.
"""

import pytest

from repro.core.alerts import AlertManager
from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.archiver import Archiver

from tests.core.helpers import FlowScript, small_monitor
from tests.core.test_control_plane import drive_stream

MS = 1_000_000


def _manager(threshold=100.0):
    config = MonitorConfig()
    mc = config.metric(MetricKind.RTT)
    mc.alert_enabled = True
    mc.alert_threshold = threshold
    return AlertManager(config)


def test_flapping_value_emits_one_alert_per_crossing():
    mgr = _manager(threshold=100.0)
    # Five swings across the strict > threshold.
    values = [150.0, 50.0, 150.0, 50.0, 150.0]
    for t, v in enumerate(values):
        mgr.check(MetricKind.RTT, flow_id=1, value=v, now_ns=t * MS)
    flags = [(a.cleared, a.value) for a in mgr.history]
    assert flags == [(False, 150.0), (True, 50.0),
                     (False, 150.0), (True, 50.0),
                     (False, 150.0)]
    assert len(mgr.active_alerts) == 1


def test_sustained_breach_never_duplicates_the_notification():
    mgr = _manager(threshold=100.0)
    for t in range(20):
        mgr.check(MetricKind.RTT, flow_id=1, value=200.0, now_ns=t * MS)
    assert len(mgr.history) == 1, "one raise, no matter how long it holds"
    # A value exactly at the threshold clears (the comparison is strict >).
    cleared = mgr.check(MetricKind.RTT, flow_id=1, value=100.0, now_ns=21 * MS)
    assert cleared is not None and cleared.cleared
    assert not mgr.active_alerts


def test_metric_boosted_tracks_each_flap():
    mgr = _manager(threshold=100.0)
    kind = MetricKind.RTT
    assert not mgr.metric_boosted(kind)
    mgr.check(kind, 1, 150.0, 0)
    assert mgr.metric_boosted(kind)
    mgr.check(kind, 1, 50.0, MS)
    assert not mgr.metric_boosted(kind)
    mgr.check(kind, 1, 150.0, 2 * MS)
    assert mgr.metric_boosted(kind)
    # Other metric classes are untouched by RTT's alert.
    assert not mgr.metric_boosted(MetricKind.THROUGHPUT)


def test_boost_holds_while_any_flow_is_alerting():
    mgr = _manager(threshold=100.0)
    kind = MetricKind.RTT
    mgr.check(kind, 1, 150.0, 0)
    mgr.check(kind, 2, 150.0, 0)
    mgr.check(kind, 1, 50.0, MS)      # flow 1 recovers...
    assert mgr.metric_boosted(kind), "...but flow 2 still holds the boost"
    mgr.check(kind, 2, 50.0, 2 * MS)
    assert not mgr.metric_boosted(kind)


def test_evicted_flow_releases_its_boost():
    mgr = _manager(threshold=100.0)
    kind = MetricKind.RTT
    mgr.check(kind, 7, 150.0, 0)
    assert mgr.metric_boosted(kind)
    mgr.drop_flow(7)
    assert not mgr.metric_boosted(kind)
    # The eviction is not a recovery: no cleared event was fabricated.
    assert [a.cleared for a in mgr.history] == [False]


# -- end-to-end: flapping drives the extraction interval -----------------------


def test_boosted_interval_engages_and_restores_across_flaps():
    """Drive real traffic so the throughput tick itself raises and clears
    the alert, and watch the timer interval follow: base -> boosted ->
    base -> boosted."""
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon)
    kind = MetricKind.THROUGHPUT
    # 4 Mbps offered; alert just below it, boosted rate 4x.
    cp.apply_metric_config(kind, alert_enabled=True, alert_threshold=3e6,
                           boosted_samples_per_second=4.0)
    cp.start()
    base = cp.config.metric(kind).interval_ns()
    boosted = cp.config.metric(kind).interval_ns(boosted=True)
    assert boosted == base // 4

    script = FlowScript(mon)
    # Burst / idle / burst: each burst trips the alert, each idle
    # stretch lets the next tick read ~0 bps and clear it.
    drive_stream(sim, script, rate_bytes_per_s=500_000, duration_s=2.0,
                 start_s=0.1)
    drive_stream(sim, script, rate_bytes_per_s=500_000, duration_s=2.0,
                 start_s=5.1)

    intervals = []

    def watch():
        timer = cp.schedule[kind.value].timer
        if timer is not None:
            intervals.append(timer.time_ns - sim.now)

    sim.every(50 * MS, watch)
    sim.run_until(seconds(9.0))
    cp.stop()

    raises = [a for a in cp.alerts.history
              if a.metric == kind.value and not a.cleared]
    clears = [a for a in cp.alerts.history
              if a.metric == kind.value and a.cleared]
    assert len(raises) >= 2, "each burst must raise its own alert"
    assert len(clears) >= 2, "each idle stretch must clear it"
    assert base in intervals and boosted in intervals
    # The timeline flapped: boosted windows are bracketed by base ones.
    compact = [intervals[0]]
    for iv in intervals[1:]:
        if iv != compact[-1]:
            compact.append(iv)
    assert len(compact) >= 4, f"interval never flapped: {compact}"


def test_sampling_rate_restored_after_clear():
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon)
    kind = MetricKind.THROUGHPUT
    cp.apply_metric_config(kind, alert_enabled=True, alert_threshold=3e6,
                           boosted_samples_per_second=10.0)
    cp.start()
    base = cp.config.metric(kind).interval_ns()

    script = FlowScript(mon)
    drive_stream(sim, script, rate_bytes_per_s=500_000, duration_s=1.5,
                 start_s=0.1)
    sim.run_until(seconds(1.5))
    assert cp.alerts.metric_boosted(kind)
    assert cp.schedule[kind.value].timer.time_ns - sim.now <= base // 10

    # Let the flow go quiet: the next samples read ~0 and clear the alert.
    sim.run_until(seconds(4.0))
    assert not cp.alerts.metric_boosted(kind)
    assert cp.schedule[kind.value].timer.time_ns - sim.now <= base
    # After the clear the armed interval is the base one again.
    armed = cp.schedule[kind.value].timer.time_ns - sim.now
    assert armed > base // 10
    cp.stop()


def test_boosted_samples_marked_in_reports():
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    kind = MetricKind.THROUGHPUT
    cp.apply_metric_config(kind, alert_enabled=True, alert_threshold=3e6,
                           boosted_samples_per_second=4.0)
    cp.start()
    script = FlowScript(mon)
    drive_stream(sim, script, rate_bytes_per_s=500_000, duration_s=2.0,
                 start_s=0.1)
    sim.run_until(seconds(4.0))
    cp.stop()
    flags = [s.boosted for s in cp.flow_samples[kind]]
    assert True in flags and False in flags, \
        "samples must record whether they came from the boosted window"
