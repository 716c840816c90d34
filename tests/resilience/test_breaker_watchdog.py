"""Circuit breaker, degradation policy, and extraction watchdog."""

import pytest

from repro import telemetry
from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import AggregateSample, FlowSample, LimiterReport, LimiterVerdict
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.resilience.breaker import (
    BreakerState,
    CircuitBreaker,
    DegradationPolicy,
)
from repro.resilience.watchdog import ExtractionWatchdog

from tests.core.helpers import document_sink, small_monitor

MS = 1_000_000


def test_breaker_opens_after_consecutive_failures():
    b = CircuitBreaker(failure_threshold=3, open_interval_ns=100 * MS)
    for t in range(2):
        b.record_failure(t * MS)
    assert b.state is BreakerState.CLOSED
    b.record_success(2 * MS)   # success resets the streak
    for t in range(3, 6):
        b.record_failure(t * MS)
    assert b.state is BreakerState.OPEN
    assert not b.allow(6 * MS)


def test_breaker_half_open_probe_then_close():
    b = CircuitBreaker(failure_threshold=1, success_threshold=2,
                       open_interval_ns=100 * MS, half_open_probes=1)
    b.record_failure(0)
    assert b.state is BreakerState.OPEN
    # Hold time not yet elapsed: still refusing.
    assert not b.allow(50 * MS)
    # Past the hold: half-open, one probe budgeted.
    assert b.allow(101 * MS)
    assert b.state is BreakerState.HALF_OPEN
    assert not b.allow(102 * MS), "probe budget spent"
    b.record_success(103 * MS)   # probe landed; budget replenished
    assert b.allow(104 * MS)
    b.record_success(105 * MS)
    assert b.state is BreakerState.CLOSED
    assert [new.value for _, _, new in b.transitions] == [
        "open", "half-open", "closed"]
    assert b.saw_state(BreakerState.HALF_OPEN)


def test_breaker_half_open_failure_reopens():
    b = CircuitBreaker(failure_threshold=5, open_interval_ns=100 * MS)
    for t in range(5):
        b.record_failure(t)
    assert b.allow(101 * MS)          # half-open probe
    b.record_failure(102 * MS)        # probe failed
    assert b.state is BreakerState.OPEN
    assert not b.allow(150 * MS), "hold timer restarted"


def test_a_probe_held_in_transit_does_not_wedge_the_breaker():
    """A half-open probe the wire defers (a reorder) proves nothing, so
    its budget comes back: the held block is retried, lands, and the
    breaker closes.  A probe that kept its budget spent would refuse
    every later attempt, with the block spooled forever."""
    from repro.core.reports import Block, document_run
    from repro.resilience.delivery import ResilientShipper
    from repro.resilience.faults import ArchiveUnavailable, DeferredDelivery

    sim = Simulator()
    fates = [ArchiveUnavailable("down"), DeferredDelivery(50 * MS)]
    calls = []

    def transport(block):
        calls.append(sim.now)
        if fates:
            raise fates.pop(0)

    breaker = CircuitBreaker(failure_threshold=1, open_interval_ns=100 * MS)
    shipper = ResilientShipper(sim, transport, breaker=breaker)
    shipper(Block([document_run({"type": "t", "n": 0})]))
    sim.run_until(seconds(30))
    assert len(calls) == 3, "fail, defer, deliver"
    assert shipper.acked_total == 1 and shipper.pending == 0
    assert breaker.state is BreakerState.HALF_OPEN   # one success of two
    shipper(Block([document_run({"type": "t", "n": 1})]))
    assert shipper.acked_total == 2
    assert breaker.state is BreakerState.CLOSED


def test_breaker_rejects_bad_thresholds():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)


class _FakeControlPlane:
    def __init__(self):
        self.calls = []

    def set_degraded(self, on, interval_scale=4.0):
        self.calls.append((on, interval_scale))


def test_degradation_policy_follows_breaker():
    b = CircuitBreaker(failure_threshold=1, success_threshold=1,
                       open_interval_ns=100 * MS)
    cp = _FakeControlPlane()
    policy = DegradationPolicy(b, cp, interval_scale=3.0)
    b.record_failure(0)
    assert cp.calls == [(True, 3.0)]
    b.allow(101 * MS)                # half-open keeps degradation
    assert cp.calls == [(True, 3.0)]
    b.record_success(102 * MS)
    assert cp.calls == [(True, 3.0), (False, 4.0)]
    assert policy.degrade_events == 1
    assert policy.restore_events == 1


def test_degradation_policy_rejects_bad_scale():
    with pytest.raises(ValueError):
        DegradationPolicy(CircuitBreaker(), _FakeControlPlane(),
                          interval_scale=0.5)


# -- control-plane degraded mode (the policy's target) -------------------------


def _sample(metric="throughput"):
    return FlowSample(time_ns=0, metric=metric, flow_id=1, src_ip=1,
                      dst_ip=2, src_port=3, dst_port=4, value=1.0)


def test_set_degraded_suppresses_per_flow_reports_only():
    sim = Simulator()
    shipped = []
    cp = MonitorControlPlane(sim, small_monitor(),
                             report_sink=document_sink(shipped))
    cp.set_degraded(True)
    cp._ship(_sample())
    cp._ship(LimiterReport(time_ns=0, flow_id=1, src_ip=1, dst_ip=2,
                           verdict=LimiterVerdict.UNKNOWN, flight_bytes=0.0,
                           flight_cv=0.0, loss_delta=0, rwnd_bytes=0))
    agg = AggregateSample(time_ns=0, link_utilization=0.5, jain_fairness=1.0,
                          active_flows=1, total_bytes=10, total_packets=1)
    cp._ship(agg)
    assert cp.reports_suppressed == 2
    assert [d["type"] for d in shipped] == ["p4_aggregate"], \
        "the aggregate stream keeps flowing while degraded"
    cp.set_degraded(False)
    cp._ship(_sample())
    assert len(shipped) == 2


def test_set_degraded_widens_and_restores_intervals():
    sim = Simulator()
    cp = MonitorControlPlane(sim, small_monitor())
    cp.start()
    kind = MetricKind.THROUGHPUT
    base = cp.config.metric(kind).interval_ns()
    assert cp.schedule[kind.value].timer.time_ns - sim.now == base
    cp.set_degraded(True, interval_scale=4.0)
    assert cp.interval_scale == 4.0
    assert cp.schedule[kind.value].timer.time_ns - sim.now == 4 * base
    cp.set_degraded(False)
    assert cp.interval_scale == 1.0
    assert cp.schedule[kind.value].timer.time_ns - sim.now == base
    cp.stop()


def test_set_degraded_rejects_bad_scale():
    cp = MonitorControlPlane(Simulator(), small_monitor())
    with pytest.raises(ValueError):
        cp.set_degraded(True, interval_scale=0.0)


# -- watchdog ------------------------------------------------------------------


def test_watchdog_detects_stall_and_recovery():
    sim = Simulator()
    cp = MonitorControlPlane(sim, small_monitor())
    cp.start()
    dog = ExtractionWatchdog(sim, cp, stall_factor=2.5)
    sim.run_until(seconds(1.0))
    assert not dog.stalled_metrics, "healthy ticks never alarm"
    # Silence the extractor entirely; the watchdog keeps its own timer.
    # Deadline = interval (1 s) x stall_factor (2.5), so the alarm fires
    # once the gap exceeds 2.5 s.
    cp.stop()
    sim.run_until(seconds(4.2))
    assert dog.stalled_metrics == {k.value for k in MetricKind}
    assert dog.total_stalls == len(MetricKind)
    # Restarting the extractor clears the alarm.
    cp.start()
    sim.run_until(seconds(5.5))
    assert not dog.stalled_metrics
    assert sum(dog.recoveries.values()) == len(MetricKind)
    dog.cancel()


def test_watchdog_skew_does_not_trip_spurious_stall():
    # Regression: the staleness verdict must use the monotonic sim
    # clock.  A 3 s wall-clock skew against a 2.5 s deadline would trip
    # every metric if the watchdog compared skewed wall time; instead it
    # only counts the suppressed near-miss.
    from repro.resilience.faults import FaultInjector, install
    from repro.resilience.schedule import FaultSchedule, FaultWindow

    sim = Simulator()
    injector = install(FaultInjector(FaultSchedule(seed=1, windows=[
        FaultWindow("clock_skew", 1.0, 2.0, offset_ms=3000.0)])))
    injector.bind_clock(lambda: sim.now)
    cp = MonitorControlPlane(sim, small_monitor())
    cp.start()
    dog = ExtractionWatchdog(sim, cp, stall_factor=2.5)
    sim.run_until(seconds(4.0))
    assert dog.total_stalls == 0, \
        "a healthy extractor under clock skew must not alarm"
    assert dog.skew_suppressed > 0, \
        "the suppressed wall-clock near-miss must be counted"
    cp.stop()
    dog.cancel()


def test_watchdog_catches_genuine_stall_during_skew():
    # The skew discipline must not mask a real stall: silence the
    # extractor inside a skew window and the alarm still fires.
    from repro.resilience.faults import FaultInjector, install
    from repro.resilience.schedule import FaultSchedule, FaultWindow

    sim = Simulator()
    injector = install(FaultInjector(FaultSchedule(seed=1, windows=[
        FaultWindow("clock_skew", 0.5, 5.0, offset_ms=3000.0)])))
    injector.bind_clock(lambda: sim.now)
    cp = MonitorControlPlane(sim, small_monitor())
    cp.start()
    dog = ExtractionWatchdog(sim, cp, stall_factor=2.5)
    sim.run_until(seconds(1.0))
    cp.stop()                         # the genuine stall
    sim.run_until(seconds(4.2))
    assert dog.stalled_metrics == {k.value for k in MetricKind}
    assert dog.total_stalls == len(MetricKind)
    dog.cancel()


def test_watchdog_rejects_bad_factor():
    sim = Simulator()
    cp = MonitorControlPlane(sim, small_monitor())
    with pytest.raises(ValueError):
        ExtractionWatchdog(sim, cp, stall_factor=1.0)


def test_breaker_exports_transitions_through_telemetry():
    telemetry.enable()
    try:
        b = CircuitBreaker(failure_threshold=1, open_interval_ns=100 * MS)
        b.record_failure(0)
        snap = telemetry.snapshot()
        counters = {m["name"]: m for m in snap["metrics"]}
        assert "repro_breaker_transitions_total" in counters
        assert "repro_breaker_state" in counters
    finally:
        telemetry.disable()
        telemetry.reset()
