"""Substrate microbenchmarks.

Not paper figures — these watch the simulator's own hot paths (the
optimisation targets the HPC guide's workflow identifies), so regressions
in event throughput or per-packet monitor cost are caught by the same
harness that regenerates the figures.
"""

import pytest

from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.tap import TapDirection
from repro.p4.hashes import crc32_tuple
from repro.p4.sketch import CountMinSketch

from tests.core.helpers import small_monitor


def test_engine_event_throughput(benchmark):
    """Schedule-and-run cost of 20k timer events."""

    def run():
        sim = Simulator()
        sink = []
        for i in range(20_000):
            sim.at(i, sink.append, i)
        sim.run()
        return len(sink)

    assert benchmark(run) == 20_000


def test_monitor_per_packet_cost(benchmark):
    """Full pipeline cost per ingress copy (flow table + Algorithm 1 +
    flight tracking) over a 2k-packet stream."""
    ft = FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201)

    def run():
        mon = small_monitor()
        t = 1000
        seq = 1
        for i in range(1000):
            pkt = make_data_packet(ft, seq=seq, payload_len=1000, ip_id=i)
            mon.process_packet(pkt, TapDirection.INGRESS, t)
            ack = make_ack_packet(ft.reversed(), ack=seq + 1000)
            mon.process_packet(ack, TapDirection.INGRESS, t + 500_000)
            seq += 1000
            t += 1_000_000
        return mon.rtt_loss.rtt_matches

    assert benchmark(run) == 1000


def test_cms_update_rate(benchmark):
    keys = [f"flow-{i}".encode() for i in range(256)]

    def run():
        cms = CountMinSketch(width=4096, depth=3)
        for _ in range(8):
            for k in keys:
                cms.update(k, 1000)
        return cms.query(keys[0])

    assert benchmark(run) == 8000


def test_flow_hash_rate(benchmark):
    tuples = [FiveTuple(i, i + 1, i % 65535, 5201) for i in range(1, 2001)]

    def run():
        return sum(crc32_tuple(ft) for ft in tuples) & 0xFFFFFFFF

    benchmark(run)


def test_end_to_end_simulation_rate(benchmark):
    """Events/second for a monitored two-flow TCP scenario (the shape of
    every figure benchmark's inner loop)."""
    from repro.experiments.common import Scenario, ScenarioConfig

    def run():
        scenario = Scenario(
            ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                           reference_rtt_ms=40.0),
            with_perfsonar=False,
        )
        scenario.add_flow(0, duration_s=3.0)
        scenario.add_flow(1, duration_s=3.0)
        scenario.run(4.0)
        return scenario.sim.events_run

    events = benchmark(run)
    assert events > 6_000  # ~8.7k: one event per unobserved hop


def test_end_to_end_simulation_rate_scalar(benchmark):
    """Scalar twin of :func:`test_end_to_end_simulation_rate`: identical
    scenario with ``batched_path=False``, so the monitor dispatches every
    mirror copy through the per-packet pipeline.  The trend gate pairs
    the two records (``X`` / ``X_scalar``) and fails if the batched
    kernel ever loses its speedup."""
    from repro.experiments.common import Scenario, ScenarioConfig

    def run():
        scenario = Scenario(
            ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                           reference_rtt_ms=40.0,
                           monitor_overrides={"batched_path": False}),
            with_perfsonar=False,
        )
        scenario.add_flow(0, duration_s=3.0)
        scenario.add_flow(1, duration_s=3.0)
        scenario.run(4.0)
        assert scenario.monitor.kernel is None
        return scenario.sim.events_run

    events = benchmark(run)
    assert events > 6_000  # ~8.7k: one event per unobserved hop


def test_phase_attribution_record(once, record_phases):
    """The end-to-end scenario under phase profiling: records per-phase
    self/cum time into BENCH_substrate.json so the trend gate can
    localize a future regression to engine dispatch, the P4 kernel,
    the control plane or the archiver path (docs/profiling.md).  Block
    detail leaves the batched path engaged, so the phases describe the
    configuration the other records here time."""
    from repro.experiments.common import Scenario, ScenarioConfig
    from repro.telemetry import profiling

    def run():
        prof = profiling.enable(mode="phase")
        try:
            scenario = Scenario(
                ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                               reference_rtt_ms=40.0),
                with_perfsonar=True,
            )
            scenario.add_flow(0, duration_s=3.0)
            scenario.add_flow(1, duration_s=3.0)
            with prof.running():
                scenario.run(4.0)
            return prof.report(), scenario.monitor
        finally:
            profiling.disable()

    report, monitor = once(run)
    # The dispatch loop must have attributed essentially the whole run.
    assert report.total_self_ns > 0.5 * report.wall_ns
    assert any(r.phase.startswith("engine/") for r in report.rows)
    assert monitor.kernel is not None
    assert (report.row("p4.process").count
            == monitor.copies_ingress + monitor.copies_egress)
    record_phases(report)
