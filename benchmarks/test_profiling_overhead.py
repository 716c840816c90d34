"""Profiler overhead budgets (docs/profiling.md).

Disabled, the profiler costs the pipeline nothing to time:
construction leaves the plain ``process`` body on class dispatch, pinned
by tests/p4/test_pipeline_binding.py.  Enabled, **phase mode** is the
always-on attribution mode.  The batched kernel stays engaged (one
``p4.process`` charge per flush), so what the profiler adds is the
profiled drain loop's per-event work: one ``perf_counter_ns``, one
``nested_ns`` load, one dict probe for the callback's cell and three
in-place cell updates.  The budget is therefore a cost per dispatched
event, ``(phase − dark) / events_run``, not a ratio: a ratio against a
substrate that PRs 8–13 made ~4x faster drifts without any profiler
change.  Measured on the 2-core reference VM: 510–650 ns/event over
9,382 events (the commit before, whose profiler bound the scalar
pipeline, measured 2.0x).  ``PHASE_BUDGET_NS`` = 800 ns/event is the top
of that range plus the ~25 % by which best-of-ten moves on this VM from
one quiet minute to the next; it has not moved since.  The run is 20 s
of flows (56,564 events, ~0.36 s) so the estimator resolves the number:
ten reads 617–850 ns/event, quartiles 719 / 764 / 795, 1.11–1.15x.
"""

from repro import telemetry
from repro.telemetry import profiling

from benchmarks.harness import (assert_within, interleaved_best,
                                substrate_scenario, timed_run)

E2E_ROUNDS = 10
PHASE_BUDGET_NS = 800
# Long enough that ten A/A reads of the estimator (dark against dark)
# have an interquartile distance under 200 ns/event on the reference VM
# (125 at 56,564 events; 343 at the 2 s / 5,869 events this file used
# to run, where a +-3 ms swing alone is +-500 ns/event).
FLOW_S = 20.0
RUN_S = 21.0


def _timed_phase_run(seen):
    prof = profiling.enable(mode="phase")
    try:
        # Construction binds the profiler, untimed.
        scenario = substrate_scenario(flow_s=FLOW_S)
        assert scenario.monitor.kernel is not None
        dt = timed_run(scenario, RUN_S)
        seen["events"] = scenario.sim.events_run
        seen["attributed"] = prof.report().total_self_ns
    finally:
        profiling.disable()
    return dt


def _measure_phase_ns_per_event():
    """Phase mode vs fully-off, end to end: the scenario
    built under ``enable(mode="phase")`` drains through the profiled
    loop body and the kernel charges ``p4.process`` per flush; the dark
    scenario pays nothing."""
    assert not profiling.active() and not telemetry.enabled()
    seen = {}
    phase, dark = interleaved_best(
        lambda: _timed_phase_run(seen),
        lambda: timed_run(substrate_scenario(flow_s=FLOW_S), RUN_S),
        E2E_ROUNDS)
    assert seen["attributed"] > 0  # attribution actually happened
    per_event = (phase - dark) / seen["events"]
    print(f"phase mode: {per_event:.0f} ns/event over {seen['events']} "
          f"events, {phase / dark:.3f}x (budget {PHASE_BUDGET_NS} ns/event)")
    return per_event


def test_phase_mode_overhead_within_budget():
    assert_within(_measure_phase_ns_per_event, PHASE_BUDGET_NS,
                  "phase-mode cost per dispatched event (ns)")
