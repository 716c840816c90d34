"""Telemetry overhead budgets: disabled, and enabled end to end.

Disabled: the instrumented hot path (P4Pipeline.process with its
``is None`` guard) must stay within 10 % of an uninstrumented twin when
telemetry is off — the promise docs/observability.md makes.
``harness.BarePipeline`` replays the pre-telemetry process() body,
sharing the *same* parser, stages and registers, so the measured delta
is exactly the instrumentation guard.

Enabled: telemetry observes the batched kernel per flush, so a whole
``Scenario`` run with telemetry on (snapshot included) must stay within
15 % of the same run with it off — both sides on the batched path.
"""

import gc
import time

from repro import telemetry

from benchmarks.harness import (assert_within, drive, guard_ratio,
                                interleaved_best, packet_stream,
                                substrate_scenario)
from tests.core.helpers import small_monitor

BUDGET = 1.10
ENABLED_ROUNDS = 5
ENABLED_BUDGET = 1.15


def _measure_ratio():
    assert not telemetry.enabled()
    guarded = small_monitor().pipeline
    assert guarded._tel_stage_pkts is None  # telemetry off → fast path
    return guard_ratio(guarded)


def test_disabled_telemetry_overhead_within_budget():
    assert_within(_measure_ratio, BUDGET,
                  "disabled-telemetry hot path vs bare twin (x)")


def _scenario_run_ns(observed: bool) -> int:
    """Wall time of one fresh Scenario run (construction untimed);
    the observed side pays for its snapshot inside the timed region."""
    if observed:
        telemetry.reset()
        telemetry.enable()
    try:
        scenario = substrate_scenario(flow_s=4.0, stagger_s=0.5,
                                      with_perfsonar=True)
        assert scenario.monitor.kernel is not None  # batched on both sides
        gc.collect()
        t0 = time.perf_counter_ns()
        scenario.run(5.0)
        if observed:
            telemetry.snapshot()
        return time.perf_counter_ns() - t0
    finally:
        if observed:
            telemetry.disable()
            telemetry.reset()


def _measure_enabled_ratio():
    assert not telemetry.enabled()
    on, off = interleaved_best(lambda: _scenario_run_ns(True),
                               lambda: _scenario_run_ns(False),
                               ENABLED_ROUNDS)
    return on / off


def test_enabled_telemetry_end_to_end_within_budget():
    ratio = assert_within(
        _measure_enabled_ratio, ENABLED_BUDGET,
        "a Scenario run with telemetry on vs the same run with it off (x)")
    print(f"enabled/disabled Scenario run: {ratio:.3f}x "
          f"(budget {ENABLED_BUDGET}x)")


def test_enabled_telemetry_still_counts(benchmark):
    """Enabled-path sanity + a timed record for BENCH_telemetry_overhead:
    instrumentation actually observes each packet."""
    telemetry.enable()
    try:
        telemetry.reset()
        mon = small_monitor()
        stream = packet_stream()

        def run():
            drive(mon.pipeline, stream)
            return mon.pipeline.packets_in

        benchmark(run)
        snap = telemetry.snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        stage_pkts = by_name["repro_p4_stage_packets_total"]
        assert sum(s["value"] for s in stage_pkts["series"]) > 0
        assert by_name["repro_p4_packet_ns"]["series"][0]["count"] > 0
    finally:
        telemetry.disable()
        telemetry.reset()
