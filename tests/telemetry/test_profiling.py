"""Performance-attribution profiler (repro.telemetry.profiling).

Covers the frame-stack arithmetic (self vs cumulative vs nested), the
engine dispatch cells, op-count sources, the report/export surface
(profviz), the sampler, and the enable/disable lifecycle including the
metrics-registry mirror.
"""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.netsim.engine import Simulator
from repro.netsim.packet import make_data_packet
from repro.netsim.tap import TapDirection
from repro.telemetry import profiling, profviz, provenance
from repro.telemetry.export import to_prometheus_text
from repro.telemetry.profiling import PhaseReport, Profiler, StackSampler

from tests.core.helpers import FT, small_monitor


@pytest.fixture(autouse=True)
def clean_profiling():
    profiling.reset()
    yield
    profiling.reset()


def _busy(ns: int) -> None:
    t0 = time.perf_counter_ns()
    while time.perf_counter_ns() - t0 < ns:
        pass


# -- frame arithmetic ---------------------------------------------------------


def test_begin_end_accumulates_self_and_cum():
    prof = Profiler(mode="phase")
    prof.begin("outer")
    _busy(200_000)
    prof.begin("inner")
    _busy(200_000)
    prof.end()
    _busy(200_000)
    prof.end()
    assert prof.depth() == 0
    outer = prof.cell("outer")
    inner = prof.cell("inner")
    assert outer[2] == 1 and inner[2] == 1
    # outer cumulative covers inner; outer self excludes it
    assert outer[0] >= inner[0] + 400_000
    assert outer[1] == outer[0] - inner[0]
    assert inner[1] == inner[0]


def test_root_frames_feed_nested_ns():
    prof = Profiler(mode="phase")
    assert prof.nested_ns == 0
    prof.begin("root")
    prof.begin("child")
    prof.end()
    nested_mid = prof.nested_ns
    prof.end()
    # only the root frame's close adds to nested_ns
    assert nested_mid == 0
    assert prof.nested_ns == prof.cell("root")[0]


def test_charge_books_a_frameless_span_like_a_closed_frame():
    """charge() is what the kernel's per-flush p4.process record uses:
    at the root it feeds nested_ns, inside an open frame it counts as
    that frame's child time — exactly what begin/end would have done."""
    prof = Profiler(mode="phase")
    cell = prof.cell("p4.process")
    prof.charge(cell, 700, 12)
    assert cell == [700, 700, 12]
    assert prof.nested_ns == 700
    prof.begin("outer")
    prof.charge(cell, 300, 5)
    prof.end()
    assert cell == [1000, 1000, 17]
    outer = prof.cell("outer")
    assert outer[1] == outer[0] - 300
    assert prof.nested_ns == 700 + outer[0]


def test_p4_process_counts_every_packet_with_the_tracer_live():
    """Regression: with profiler and tracer both on, traced packets used
    to take a tracer-only body that never charged the profiler."""
    tracer = provenance.enable()
    prof = profiling.enable(mode="phase")
    try:
        mon = small_monitor()
        for i in range(40):
            pkt = make_data_packet(FT, seq=1 + 1000 * i, payload_len=1000,
                                   ip_id=i)
            mon.process_packet(pkt, TapDirection.INGRESS, 1000 * (i + 1))
    finally:
        provenance.disable()
    assert prof.depth() == 0
    assert prof.report().row("p4.process").count == 40
    assert tracer.events_recorded > 0


def test_wide_root_frame_emits_profile_span():
    prof = Profiler(mode="phase", span_min_wall_ns=100_000)

    class Clock:
        now = 42

    prof.bind_clock(Clock())
    prof.begin("slow")
    _busy(300_000)
    prof.end()
    assert prof.span_log, "no span for a frame over the threshold"
    span = prof.span_log[-1]
    assert span["path"] == "profile/slow"
    assert span["wall_ns"] >= 100_000


# -- engine dispatch attribution ---------------------------------------------


def _profiled_sim():
    prof = profiling.enable(mode="phase")
    return prof, Simulator()


def test_dispatch_attributes_per_callback():
    prof, sim = _profiled_sim()
    hits = []

    class Worker:
        def tick(self, i):
            hits.append(i)
            _busy(50_000)

    w = Worker()
    for i in range(20):
        sim.at(1000 * (i + 1), w.tick, i)
    sim.run()
    assert hits == list(range(20))
    report = prof.report()
    row = report.row("engine/" + Worker.tick.__qualname__)
    assert row is not None
    assert row.count == 20
    assert row.self_ns >= 20 * 50_000
    assert row.ns_per_event >= 50_000


def test_dispatch_subtracts_framed_nested_time():
    prof, sim = _profiled_sim()

    def framed_callback():
        prof.begin("explicit.block")
        _busy(400_000)
        prof.end()

    sim.at(1000, framed_callback)
    sim.run()
    report = prof.report()
    block = report.row("explicit.block")
    dispatch = report.row("engine/" + framed_callback.__qualname__)
    assert block.self_ns >= 400_000
    # the dispatch cell's cumulative covers the frame; self excludes it
    assert dispatch.cum_ns >= block.cum_ns
    assert dispatch.self_ns <= dispatch.cum_ns - block.cum_ns + 50_000


def test_two_instances_share_one_phase_row():
    prof, sim = _profiled_sim()

    class Worker:
        def tick(self):
            _busy(20_000)

    a, b = Worker(), Worker()
    sim.at(1000, a.tick)
    sim.at(2000, b.tick)
    sim.run()
    row = prof.report().row("engine/" + Worker.tick.__qualname__)
    assert row.count == 2


# -- report / sources / exports ----------------------------------------------


def test_a_report_taken_between_flushes_agrees_with_itself():
    """Regression: under the block profiler the kernel stays engaged, so
    copies are counted at intake but register work only once a flush
    ran; a mid-run report showed 50 copies and 0 register ops."""
    from repro.core.config import MonitorConfig
    from repro.core.monitor import P4Monitor
    from repro.netsim.tap import MirrorCopy

    prof = profiling.enable(mode="phase")
    mon = P4Monitor(MonitorConfig(long_flow_bytes=1000), sim=Simulator())
    for i in range(50):
        pkt = make_data_packet(FT, seq=1 + 1000 * i, payload_len=1000, ip_id=i)
        mon.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, 1000 * (i + 1)))
    assert mon.kernel.pending == 50   # buffered, nothing drained yet
    report = prof.report()
    assert report.sources["p4.tap_copies"] == 50
    assert report.sources["p4.register_ops"] > 0
    assert report.sources["p4.sketch_ops"] > 0
    assert report.row("p4.process").count == 50


def test_report_rows_sorted_and_serializable(tmp_path):
    prof = Profiler(mode="phase")
    prof.add_source("ops.registers", lambda: 1234)
    with prof.running():
        prof.begin("big")
        _busy(400_000)
        prof.end()
        prof.begin("small")
        _busy(50_000)
        prof.end()
    report = prof.report()
    assert [r.phase for r in report.rows] == ["big", "small"]
    assert report.wall_ns > 0
    assert report.sources == {"ops.registers": 1234}
    assert report.total_self_ns == sum(r.self_ns for r in report.rows)
    doc = report.to_dict()
    assert doc["schema"] == "repro-profile-v1"
    out = profviz.write_phase_report(tmp_path / "p.json", report)
    loaded = json.loads((tmp_path / "p.json").read_text())
    assert loaded["phases"][0]["phase"] == "big"
    assert loaded == out
    table = report.render_table(top=5)
    assert "big" in table and "ops.registers" in table


def test_gc_pauses_counted():
    import gc

    prof = Profiler(mode="phase")
    with prof.running():
        gc.collect()
        gc.collect()
    assert prof.gc_pauses >= 2
    # callbacks must be unhooked after stop()
    before = prof.gc_pauses
    gc.collect()
    assert prof.gc_pauses == before


# -- sampler ------------------------------------------------------------------


def test_sampler_collects_stacks_of_target_thread(tmp_path):
    sampler = StackSampler(interval_s=0.001,
                           target_ident=threading.get_ident())
    sampler.start()
    _busy(60_000_000)  # ~60 ms busy loop on the sampled thread
    sampler.stop()
    assert sampler.samples, "no stacks collected"
    stacks = list(sampler.samples)
    assert any("_busy" in frame for stack in stacks for frame in stack)
    # root→leaf order: the test function sits above _busy
    hit = next(s for s in stacks
               if any("_busy" in f for f in s))
    i_test = next(i for i, f in enumerate(hit)
                  if "test_sampler_collects" in f)
    i_busy = next(i for i, f in enumerate(hit) if "_busy" in f)
    assert i_test < i_busy

    n = profviz.write_collapsed(tmp_path / "c.txt", sampler.samples)
    assert n == len(sampler.samples)
    loaded = profviz.load_collapsed(tmp_path / "c.txt")
    assert sum(c for _, c in loaded) == sum(sampler.samples.values())


def test_collapsed_loader_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("not a collapsed line\n")
    with pytest.raises(ValueError):
        profviz.load_collapsed(empty)


# -- lifecycle ----------------------------------------------------------------


def test_enable_modes_and_disable():
    prof = profiling.enable(mode="phase")
    assert profiling.active() and profiling.profiler() is prof
    assert prof.phases and prof.sampler is None
    profiling.disable()
    assert not profiling.active() and profiling.profiler() is None
    with pytest.raises(ValueError):
        profiling.enable(mode="nonsense")


def test_sample_mode_runs_sampler():
    prof = profiling.enable(mode="sample", sample_interval_s=0.001)
    try:
        with prof.running():
            _busy(30_000_000)
        assert prof.sampler is not None
        assert prof.report().sample_count > 0
    finally:
        profiling.disable()


def test_components_bind_at_construction_only():
    sim_dark = Simulator()
    prof = profiling.enable(mode="phase")
    sim_lit = Simulator()
    assert sim_dark._prof is None
    assert sim_lit._prof is prof
    profiling.disable()
    assert Simulator()._prof is None


def test_phase_gauges_mirrored_into_metrics_registry(clean_telemetry):
    telemetry.enable()
    prof = profiling.enable(mode="phase")
    sim = Simulator()
    sink = []
    for i in range(5):
        sim.at(1000 * (i + 1), sink.append, i)
    sim.run()
    text = to_prometheus_text(telemetry.registry().snapshot())
    assert "repro_profile_phase_ns" in text
    assert 'phase="engine/list.append"' in text
    assert "repro_profile_phase_events" in text
    profiling.disable()
    # a fresh render after disable must not resurrect the old profiler
    assert "list.append" in text
