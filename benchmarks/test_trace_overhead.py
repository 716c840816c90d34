"""Provenance-tracing overhead budgets.

Two operating points, per docs/observability.md (disabled, the tracer
costs the pipeline nothing to time: the plain ``process`` body stays on
class dispatch, pinned by tests/p4/test_pipeline_binding.py):

- **coarse-only** (``fine_window=0``, 1/64 sampling): the always-on
  long-horizon mode — within 15 % of event-loop wall time on the
  substrate end-to-end scenario (the netsim + pipeline + control-plane
  workload every figure benchmark runs, where the hooks on every
  queue/TAP hop and register write all fire; the hooks themselves
  measured ~8–13 % when both sides ran the scalar pipeline, the budget
  adds noise headroom).  Over its number (≈ 2.4x), and not widened,
  since the dark side runs the batched kernel and a tracer still binds
  the scalar pipeline — a strict ``xfail`` until coarse provenance
  observes per flush (ROADMAP item 2a): the day it fits, the marker
  turns the run red until someone removes it;
- **full tracing**: timed, no budget (it is the diagnosis mode, not an
  always-on setting).
"""

import pytest

from repro import telemetry
from repro.telemetry import provenance

from benchmarks.harness import (assert_within, drive, interleaved_best,
                                packet_stream, substrate_scenario, timed_run)
from tests.core.helpers import small_monitor

E2E_ROUNDS = 6
COARSE_BUDGET = 1.15


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


@pytest.mark.xfail(
    strict=True, reason="ROADMAP 2a: a tracer still binds the scalar pipeline")
def test_coarse_only_provenance_overhead_within_budget():
    assert_within(_measure_coarse_ratio, COARSE_BUDGET,
                  "coarse-only provenance vs dark, event loop (x)")


def test_full_tracing_records_all_layers(benchmark):
    """Full-capture sanity, timed: every pipeline traversal lands in the
    fine window."""
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
