"""Provenance-tracing overhead budgets.

Three operating points, per docs/observability.md:

- **disabled** (the default): the pipeline hot path pays only the
  bind-time ``is None`` guards — within 2 % of an uninstrumented twin
  (``harness.BarePipeline`` replays the pre-instrumentation process()
  body, sharing parser/stages, so the delta is exactly the guards);
- **coarse-only** (``fine_window=0``, 1/64 sampling): the always-on
  long-horizon mode — within 15 % of event-loop wall time on the
  substrate end-to-end scenario (the netsim + pipeline + control-plane
  workload every figure benchmark runs, where the hooks on every
  queue/TAP hop and register write all fire; measured steady-state
  cost is ~8–13 % on the reference container, the budget adds noise
  headroom);
- **full tracing**: timed for the BENCH_trace_overhead record, no budget
  (it is the diagnosis mode, not an always-on setting).
"""

from repro import telemetry
from repro.telemetry import provenance

from benchmarks.harness import (assert_within, drive, guard_ratio,
                                interleaved_best, packet_stream,
                                substrate_scenario, timed_run)
from tests.core.helpers import small_monitor

E2E_ROUNDS = 6
DISABLED_BUDGET = 1.02
COARSE_BUDGET = 1.15


def _measure_disabled_ratio():
    """Tracing off: guarded and bare share the same parser/stages, so
    the delta is exactly the ``is None`` guards."""
    assert not provenance.active() and not telemetry.enabled()
    guarded = small_monitor().pipeline
    assert guarded._trace is None  # provenance off → fast path
    return guard_ratio(guarded)


def _timed_coarse_run(seen):
    tracer = provenance.enable(fine_window=0, sample_rate=1.0 / 64.0)
    try:
        scenario = substrate_scenario()  # hooks bind here, untimed
        dt = timed_run(scenario, 3.0)
        seen["events_recorded"] = tracer.events_recorded
        assert len(tracer.fine) == 0  # fine ring stayed off
    finally:
        provenance.disable()
    return dt


def _measure_coarse_ratio():
    """Coarse-only tracing vs fully-off, end to end: the scenario built
    under ``enable(fine_window=0)`` binds the tracer in every netsim
    port, TAP, pipeline stage and register; the dark scenario pays only
    the ``is None`` guards."""
    assert not provenance.active() and not telemetry.enabled()
    seen = {}
    coarse, dark = interleaved_best(
        lambda: _timed_coarse_run(seen),
        lambda: timed_run(substrate_scenario(), 3.0), E2E_ROUNDS)
    assert seen["events_recorded"] > 0  # sampling actually recorded
    return coarse / dark


def test_disabled_provenance_overhead_within_budget():
    assert_within(_measure_disabled_ratio, DISABLED_BUDGET,
                  "disabled-provenance hot path vs bare twin (x)")


def test_coarse_only_provenance_overhead_within_budget():
    assert_within(_measure_coarse_ratio, COARSE_BUDGET,
                  "coarse-only provenance vs dark, event loop (x)")


def test_full_tracing_records_all_layers(benchmark):
    """Full-capture sanity + the timed record for BENCH_trace_overhead:
    every pipeline traversal lands in the fine window."""
    tracer = provenance.enable()
    try:
        mon = small_monitor()
        stream = packet_stream()

        def run():
            drive(mon.pipeline, stream)
            return tracer.events_recorded

        assert benchmark(run) > 0
        layers = {ev.layer for ev in tracer.events()}
        assert {"p4", "register"} <= layers
        assert len(tracer.fine) > 0
    finally:
        provenance.disable()
