"""End-to-end: an instrumented fig9-style run populates every layer's
metrics, and the CLI surfaces them."""

import json

import pytest

from repro import telemetry
from repro.telemetry import profiling


def _scenario():
    from repro.experiments.common import Scenario, ScenarioConfig

    return Scenario(
        ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                       reference_rtt_ms=40.0),
        with_perfsonar=True,
    )


@pytest.fixture(scope="module")
def instrumented_snapshot():
    """One short monitored run with telemetry on (module-scoped: the
    scenario is the expensive part)."""
    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    try:
        scenario = _scenario()
        scenario.add_flow(0, duration_s=3.0)
        scenario.add_flow(1, start_s=1.0, duration_s=3.0)
        scenario.run(4.5)
        assert scenario.monitor.kernel is not None, (
            "telemetry pushed the monitor off the batched kernel")
        assert scenario.topology.tap._fast_buf is scenario.monitor.batch_buffer, (
            "telemetry disengaged the TAP's fast mirror path")
        yield telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()


def _by_name(snap):
    return {m["name"]: m for m in snap["metrics"]}


def test_netsim_events_counted(instrumented_snapshot):
    by_name = _by_name(instrumented_snapshot)
    assert by_name["repro_netsim_events_total"]["series"][0]["value"] > 10_000


def test_p4_stage_packet_counts(instrumented_snapshot):
    by_name = _by_name(instrumented_snapshot)
    stages = {s["labels"]["stage"]: s["value"]
              for s in by_name["repro_p4_stage_packets_total"]["series"]}
    for stage in ("parser", "flow_table", "rtt_loss", "queue_monitor"):
        assert stages.get(stage, 0) > 0, f"stage {stage} saw no packets"
    copies = sum(s["value"] for s in by_name["repro_p4_tap_copies"]["series"])
    assert stages["parser"] == copies


def test_extraction_cycle_timings_per_metric_class(instrumented_snapshot):
    by_name = _by_name(instrumented_snapshot)
    cycles = {s["labels"]["metric"]: s["value"]
              for s in by_name["repro_cp_extraction_cycles_total"]["series"]}
    for metric in ("throughput", "packet_loss", "rtt", "queue_occupancy"):
        assert cycles.get(metric, 0) > 0, f"no extraction cycles for {metric}"


def test_archiver_records_shipped(instrumented_snapshot):
    by_name = _by_name(instrumented_snapshot)
    assert by_name["repro_archiver_records_total"]["series"][0]["value"] > 0
    assert by_name["repro_logstash_events_total"]["series"]
    reports = {s["labels"]["type"]: s["value"]
               for s in by_name["repro_cp_reports_total"]["series"]}
    assert reports.get("p4_throughput", 0) > 0


def test_register_and_sketch_ops_pulled(instrumented_snapshot):
    by_name = _by_name(instrumented_snapshot)
    reg_ops = {s["labels"]["register"]: s["value"]
               for s in by_name["repro_p4_register_ops"]["series"]}
    assert sum(reg_ops.values()) > 0
    tap = {s["labels"]["direction"]: s["value"]
           for s in by_name["repro_p4_tap_copies"]["series"]}
    assert tap["ingress"] > 0 and tap["egress"] > 0


def test_each_extraction_is_timed_by_one_clock():
    """An extraction tick is one cycle count and one `cp.extract/<job>`
    profiler frame; telemetry times none of it (no span families, no
    wall-clock histograms beside the profiler's own phase gauges)."""
    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    prof = profiling.enable(mode="phase")
    try:
        scenario = _scenario()
        scenario.add_flow(0, duration_s=1.5)
        scenario.run(2.0)
        assert scenario.monitor.kernel is not None
        by_name = _by_name(telemetry.snapshot())
        report = prof.report()
    finally:
        profiling.disable()
        telemetry.disable()
        telemetry.reset()
    assert not [name for name in by_name if name.startswith("repro_span_")]
    assert [name for name in by_name if name.endswith("_ns")] \
        == ["repro_profile_phase_ns"]
    cycles = {s["labels"]["metric"]: s["value"]
              for s in by_name["repro_cp_extraction_cycles_total"]["series"]}
    timed = {row.phase[len("cp.extract/"):]: row.count for row in report.rows
             if row.phase.startswith("cp.extract/")}
    assert timed == cycles and sum(timed.values()) > 0
    copies = sum(s["value"] for s in by_name["repro_p4_tap_copies"]["series"])
    assert report.row("p4.process").count == copies > 0


def test_snapshot_round_trips_through_both_exporters(instrumented_snapshot):
    text = telemetry.to_prometheus_text(instrumented_snapshot)
    assert "repro_netsim_events_total" in text
    assert "repro_archiver_record_fields_bucket" in text
    rt = json.loads(telemetry.to_json(instrumented_snapshot))
    assert telemetry.to_prometheus_text(rt) == text


def test_cli_stats_prints_snapshot(capsys):
    from repro.cli import main

    telemetry.disable()
    telemetry.reset()
    try:
        rc = main(["stats", "--duration", "4"])
    finally:
        telemetry.disable()
        telemetry.reset()
    assert rc == 0
    out = capsys.readouterr().out
    for needle in ("repro_netsim_events_total", "repro_p4_stage_packets_total",
                   "repro_cp_extraction_cycles_total", "repro_archiver_records_total"):
        assert needle in out


def test_cli_telemetry_out_writes_prom_file(tmp_path, capsys):
    from repro.cli import main

    out_file = tmp_path / "metrics.prom"
    telemetry.disable()
    telemetry.reset()
    try:
        rc = main(["stats", "--duration", "4",
                   "--telemetry-format", "prom",
                   "--telemetry-out", str(out_file)])
    finally:
        telemetry.disable()
        telemetry.reset()
    assert rc == 0
    capsys.readouterr()
    text = out_file.read_text()
    assert "# TYPE repro_netsim_events_total counter" in text


def test_snapshot_drains_the_batch_buffer_first():
    """A snapshot taken while copies still wait in the kernel's buffer
    flushes them before reading tallies, so TAP copies received and
    packets through the parser agree."""
    from repro.core.monitor import P4Monitor
    from repro.netsim.engine import Simulator
    from repro.netsim.packet import FiveTuple, make_data_packet
    from repro.netsim.tap import MirrorCopy, TapDirection

    telemetry.enable()
    monitor = P4Monitor(sim=Simulator())
    assert monitor.kernel is not None
    ft = FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201)
    for i in range(10):
        pkt = make_data_packet(ft, seq=1 + 1000 * i, payload_len=1000, ip_id=i)
        monitor.receive_copy(MirrorCopy(pkt, TapDirection.INGRESS, 1_000 * (i + 1)))
        monitor.receive_copy(MirrorCopy(pkt, TapDirection.EGRESS, 1_000 * (i + 1) + 500))
    assert monitor.kernel.pending == 20

    by_name = _by_name(telemetry.snapshot())
    assert monitor.kernel.pending == 0
    copies = sum(s["value"] for s in by_name["repro_p4_tap_copies"]["series"])
    stages = {s["labels"]["stage"]: s["value"]
              for s in by_name["repro_p4_stage_packets_total"]["series"]}
    assert copies == stages["parser"] == stages["microburst"] == 20
    reg_ops = {s["labels"]["register"]: s["value"]
               for s in by_name["repro_p4_register_ops"]["series"]}
    assert reg_ops["q_stash_ts"] == 10 * 2 + 10 * 2  # ingress r+w, egress r+w
