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

from benchmarks.harness import (interleaved_best, substrate_scenario,
                                timed_run)
from tests.core.helpers import small_monitor

TWIN_ROUNDS = 5


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


def test_end_to_end_simulation_rate():
    """A monitored two-flow TCP scenario (the shape of every figure
    benchmark's inner loop) on the batched kernel and on its scalar twin
    — the identical scenario with ``batched_path=False``, every mirror
    copy through the per-packet pipeline — measured interleaved in one
    run: the kernel must not lose its speedup."""
    def run_ns(**overrides):
        scenario = substrate_scenario(flow_s=3.0, **overrides)
        assert (scenario.monitor.kernel is None) is bool(overrides)
        dt = timed_run(scenario, 4.0)
        assert scenario.sim.events_run > 6_000  # ~8.7k: one event per unobserved hop
        return dt

    batched, scalar = interleaved_best(
        run_ns, lambda: run_ns(batched_path=False), TWIN_ROUNDS)
    print(f"event loop, batched {batched / 1e6:.1f} ms vs scalar "
          f"{scalar / 1e6:.1f} ms: {scalar / batched:.2f}x")
    assert batched <= scalar


def test_phase_attribution_record(once):
    """The end-to-end scenario under phase profiling: block detail
    leaves the batched path engaged, so the phases describe the
    configuration the other tests here time, and the dispatch loop
    attributes essentially the whole run (docs/profiling.md)."""
    from repro.telemetry import profiling

    def run():
        prof = profiling.enable(mode="phase")
        try:
            scenario = substrate_scenario(flow_s=3.0, with_perfsonar=True)
            with prof.running():
                scenario.run(4.0)
            return prof.report(), scenario.monitor
        finally:
            profiling.disable()

    report, monitor = once(run)
    print(report.render_table(top=8))
    assert report.total_self_ns > 0.5 * report.wall_ns
    assert any(r.phase.startswith("engine/") for r in report.rows)
    assert monitor.kernel is not None
    assert (report.row("p4.process").count
            == monitor.copies_ingress + monitor.copies_egress)
