"""Telemetry overhead budget: enabled, end to end.

Telemetry observes the batched kernel per flush, so a whole ``Scenario``
run with telemetry on (snapshot included) must stay within 15 % of the
same run with it off — both sides on the batched path.  (Disabled,
telemetry costs the pipeline nothing to time: the plain ``process`` body
stays on class dispatch, pinned by tests/p4/test_pipeline_binding.py.)
"""

import gc
import time

from repro import telemetry

from benchmarks.harness import (assert_within, drive, interleaved_best,
                                packet_stream, substrate_scenario)
from tests.core.helpers import small_monitor

ENABLED_ROUNDS = 5
ENABLED_BUDGET = 1.15


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
    """Enabled-path sanity, timed: instrumentation actually observes
    each packet."""
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
