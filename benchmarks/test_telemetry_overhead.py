"""Telemetry overhead budgets: disabled, and enabled end to end.

Disabled: the instrumented hot path (P4Pipeline.process with its
``is None`` guard) must stay within 10 % of an uninstrumented twin when
telemetry is off — the promise docs/observability.md makes.
``BarePipeline`` replays the pre-telemetry process() body, sharing the
*same* parser, stages and registers, so the measured delta is exactly
the instrumentation guard.

Enabled: telemetry observes the batched kernel per flush, so a whole
``Scenario`` run with telemetry on (snapshot included) must stay within
15 % of the same run with it off — both sides on the batched path.
"""

import gc
import time

from repro import telemetry
from repro.core.monitor import P4Monitor
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.tap import TapDirection
from repro.p4.pipeline import P4Pipeline, StandardMetadata
from repro.core.flow_table import PORT_INGRESS_TAP

from tests.core.helpers import small_monitor

PACKETS = 400
ROUNDS = 9
BUDGET = 1.10
ENABLED_ROUNDS = 5
ENABLED_BUDGET = 1.15


class BarePipeline(P4Pipeline):
    """The process() body exactly as it was before instrumentation."""

    def process(self, packet, meta):
        self.packets_in += 1
        hdr = self.parser.parse(packet)
        if hdr is None:
            self.packets_dropped += 1
            return None
        for stage in self.ingress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        for stage in self.egress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        return hdr


def _packet_stream(n):
    ft = FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201)
    stream = []
    seq = 1
    for i in range(n):
        stream.append(make_data_packet(ft, seq=seq, payload_len=1000, ip_id=i))
        stream.append(make_ack_packet(ft.reversed(), ack=seq + 1000))
        seq += 1000
    return stream


def _drive(pipeline, stream):
    t = 1000
    for pkt in stream:
        meta = StandardMetadata(ingress_port=PORT_INGRESS_TAP,
                                ingress_timestamp_ns=t)
        pipeline.process(pkt, meta)
        t += 500_000


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return best


def _measure_ratio():
    assert not telemetry.enabled()
    stream = _packet_stream(PACKETS)

    mon = small_monitor()
    guarded = mon.pipeline
    assert guarded._tel_stage_pkts is None  # telemetry off → fast path

    bare = BarePipeline("bare")
    bare.parser = guarded.parser
    bare.ingress = guarded.ingress
    bare.egress = guarded.egress

    # Interleave rounds (cancels thermal/frequency drift), alternate
    # which pipeline goes first (cancels monotonic drift in either
    # direction), take best-of (discards scheduler noise), and keep the
    # GC out of the timings.  Each round re-drives the same stream;
    # register state converges after the first (untimed) warmup round.
    _drive(guarded, stream)
    _drive(bare, stream)
    guarded_best = bare_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(ROUNDS):
            first, second = (guarded, bare) if i % 2 == 0 else (bare, guarded)
            t0 = time.perf_counter_ns()
            _drive(first, stream)
            dt_first = time.perf_counter_ns() - t0
            t0 = time.perf_counter_ns()
            _drive(second, stream)
            dt_second = time.perf_counter_ns() - t0
            if first is guarded:
                guarded_best = min(guarded_best, dt_first)
                bare_best = min(bare_best, dt_second)
            else:
                bare_best = min(bare_best, dt_first)
                guarded_best = min(guarded_best, dt_second)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return guarded_best / bare_best


def test_disabled_telemetry_overhead_within_budget():
    ratios = []
    for _ in range(3):  # retry: pass as soon as one clean attempt fits
        ratio = _measure_ratio()
        ratios.append(ratio)
        if ratio <= BUDGET:
            break
    assert min(ratios) <= BUDGET, (
        f"disabled-telemetry hot path is {min(ratios):.3f}x the "
        f"uninstrumented baseline (budget {BUDGET}x); attempts: "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )


def _scenario_run_ns(observed: bool) -> int:
    """Wall time of one fresh Scenario run (construction untimed);
    the observed side pays for its snapshot inside the timed region."""
    from repro.experiments.common import Scenario, ScenarioConfig

    if observed:
        telemetry.reset()
        telemetry.enable()
    try:
        scenario = Scenario(
            ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                           reference_rtt_ms=40.0),
            with_perfsonar=True)
        scenario.add_flow(0, duration_s=4.0)
        scenario.add_flow(1, start_s=0.5, duration_s=4.0)
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
    _scenario_run_ns(True)  # untimed warmup of both bindings
    _scenario_run_ns(False)
    best = {True: float("inf"), False: float("inf")}
    for i in range(ENABLED_ROUNDS):
        for observed in ((True, False) if i % 2 == 0 else (False, True)):
            best[observed] = min(best[observed], _scenario_run_ns(observed))
    return best[True] / best[False]


def test_enabled_telemetry_end_to_end_within_budget():
    ratios = []
    for _ in range(3):  # retry: pass as soon as one clean attempt fits
        ratio = _measure_enabled_ratio()
        ratios.append(ratio)
        if ratio <= ENABLED_BUDGET:
            break
    print(f"enabled/disabled Scenario run: {min(ratios):.3f}x "
          f"(budget {ENABLED_BUDGET}x)")
    assert min(ratios) <= ENABLED_BUDGET, (
        f"a Scenario run with telemetry on is {min(ratios):.3f}x the same "
        f"run with it off (budget {ENABLED_BUDGET}x); attempts: "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )


def test_enabled_telemetry_still_counts(benchmark):
    """Enabled-path sanity + a timed record for BENCH_telemetry_overhead:
    instrumentation actually observes each packet."""
    telemetry.enable()
    try:
        telemetry.reset()
        mon = small_monitor()
        stream = _packet_stream(PACKETS)

        def run():
            _drive(mon.pipeline, stream)
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
