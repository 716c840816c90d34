"""Chaos acceptance suite: every bundled schedule must settle with zero
acked-report loss, an exactly-once archive, a green differential oracle,
and byte-identical replays."""

import json

import pytest

from repro import telemetry
from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.archiver import Archiver
from repro.resilience.breaker import BreakerState
from repro.resilience.chaos import (
    ChaosSpec,
    bundled_chaos,
    load_spec,
    run_chaos,
    write_artifact,
)
from repro.resilience.faults import FaultInjector, install
from repro.resilience.schedule import FaultSchedule, FaultWindow

from tests.core.helpers import FlowScript, documents_sha256, small_monitor
from tests.core.test_control_plane import drive_stream

BUNDLES = sorted(bundled_chaos())


# The archive digest each bundled schedule settles to; a change that
# moves one names its cause beside the new pin.
BUNDLE_DIGESTS = {
    "archiver-outage":
        "d3763b8d3cdec3b21c85ebcfa68801ac21607a4ece133c3104ce47ca2ea76675",
    "cp-stall-skew":
        "f592339d5d589dc1480250a98317c576c1fad3f8e6d6507cb70b0aa82f72df85",
    "kitchen-sink":
        "436cc59cf5265f58615b96237c66aedf8f1e9e7dc41cf92b2bac7e2c68c83f59",
    "lossy-transport":
        "fffdc8f7efc3d9582cd0d9edc5e6f7afe95ff678a3592af5af9bf1e4cdf93f38",
    "slow-drain":
        "206ded674a8ef11e968cbad93b5f035f527fabe4ba7fca50ecaebaa7ec43ad53",
}

# The same archives without ``_id``s (``documents_sha256``).  When a
# tick's streams became runs, each run's documents took consecutive
# ``_id``s, so the digests above were re-pinned (from a2ee3a0f...,
# 5e648731..., 9724c741..., 93a1d07f... and d579f544...); these kept
# the values the per-row path gave them.
BUNDLE_DIGESTS_WITHOUT_IDS = {
    "archiver-outage":
        "77b44764b7010db60eaef1ddf244365d9675f8bc22544b6e31f5710d985905a6",
    "cp-stall-skew":
        "615463949690654c920733cff4a290608dce2054b0c3fa616c7cd4f8f11ec5d0",
    "kitchen-sink":
        "38112375ebe2f0d2f8c80d06c375c8074433e6f1661ff6cc20907a2f34a0dc42",
    "lossy-transport":
        "333fdec470b43ebf2ab78105b0eddf9095f3b681f7d646998f69e98950f7575c",
    "slow-drain":
        "0a716530fa2d23c18e32b21beef9f99cad060c289a5bd95d2f4c19be7395423d",
}


@pytest.fixture(scope="module")
def bundle_results():
    """Each bundled scenario, run once and shared across assertions."""
    return {name: run_chaos(spec) for name, spec in bundled_chaos().items()}


@pytest.mark.parametrize("name", BUNDLES)
def test_bundled_schedule_settles_clean(bundle_results, name):
    result = bundle_results[name]
    assert result.passed, result.summary()
    # The invariants, spelled out (not just the rolled-up verdict):
    assert not result.missing_acked_seqs, "acked reports must be archived"
    assert not result.archived_duplicate_seqs, "archive must be exactly-once"
    assert result.dead_letter_evictions == 0
    assert result.still_pending == 0
    assert result.oracle_passed, "faults must not corrupt measurements"
    assert result.shipped == result.acked
    assert result.injections, f"{name} injected nothing — dead schedule?"
    assert result.recovery is None


@pytest.mark.parametrize("name", BUNDLES)
def test_bundled_archive_digest_is_pinned(bundle_results, name):
    assert bundle_results[name].archive_digest == BUNDLE_DIGESTS[name]
    assert (documents_sha256(bundle_results[name].run.scenario.archiver.store)
            == BUNDLE_DIGESTS_WITHOUT_IDS[name])


def test_a_crash_free_run_installs_no_recovery_machinery(monkeypatch):
    """Without a cp_crash window the run builds no supervisor (its probe
    timer would add events) and installs no checkpoint manager."""
    from repro.resilience import chaos, checkpoint

    def refuse(*_args, **_kwargs):
        raise AssertionError("crash-only machinery built by a crash-free run")

    monkeypatch.setattr(chaos, "Supervisor", refuse)
    monkeypatch.setattr(checkpoint, "install_manager", refuse)
    result = run_chaos(bundled_chaos()["slow-drain"])
    assert result.passed, result.summary()
    assert result.recovery is None
    assert result.archive_digest == BUNDLE_DIGESTS["slow-drain"]


def test_bundled_schedules_run_on_the_batched_path(bundle_results):
    """Chaos exercises the default data plane: an installed injector
    leaves the kernel and the TAP's fast mirror path bound."""
    for name in BUNDLES:
        scenario = bundle_results[name].run.scenario
        assert scenario.monitor.kernel is not None, name
        assert scenario.topology.tap._fast_buf is scenario.monitor.batch_buffer
        assert scenario.control_plane._faults is not None


def test_archiver_outage_exercises_breaker_and_retry(bundle_results):
    result = bundle_results["archiver-outage"]
    assert result.injections.get("archiver_outage", 0) > 0
    assert result.shipper_stats["retries"] > 0
    assert result.shipper_stats["spool_high_watermark"] > 1
    states = {new for _, _, new in result.breaker_transitions}
    assert BreakerState.OPEN in states, "outage must open the breaker"
    assert result.breaker_transitions[-1][2] is BreakerState.CLOSED, \
        "the breaker must close once the archiver recovers"
    assert result.degrade_events >= 1
    assert result.restore_events >= 1


def test_lossy_transport_needs_dedup(bundle_results):
    result = bundle_results["lossy-transport"]
    assert result.injections.get("report_duplicate", 0) > 0
    assert result.duplicates_dropped > 0, \
        "duplicates must reach the archiver and be collapsed there"
    assert result.archived_unique == result.acked


def test_cp_stall_defers_then_catches_up(bundle_results):
    result = bundle_results["cp-stall-skew"]
    assert result.injections.get("cp_stall", 0) > 0
    assert result.ticks_deferred > 0
    assert result.catchup_ticks > 0
    assert result.injections.get("clock_skew", 0) > 0
    assert result.shipper_stats["timestamps_skewed"] > 0


def test_all_metric_stall_reaches_the_extractor_jobs():
    """A ``cp_stall`` window with no ``metric`` stalls all six schedule
    jobs, and the chaos tallies and the watchdog see all six — the
    histogram and forensics deferrals used to sit in private counters
    nothing read."""
    from dataclasses import replace

    base = bundled_chaos()["cp-stall-skew"]
    spec = replace(
        base,
        scenario=base.scenario.clone(histograms=True, forensics=True),
        # Every job ticks at 1 Hz: the t=2,3,4 s ticks fall inside the
        # window, and the 2.5 s watchdog deadline expires inside it too.
        schedule=FaultSchedule(seed=7, windows=[
            FaultWindow("cp_stall", 1.5, 3.2)]))
    result = run_chaos(spec)
    assert result.passed, result.summary()
    assert result.ticks_deferred == 6 * 3
    assert result.catchup_ticks == 6
    cp = result.run.scenario.control_plane
    assert list(cp.schedule) == [k.value for k in MetricKind] + [
        "histograms", "forensics"]
    assert cp.ticks_deferred == dict.fromkeys(cp.schedule, 3)
    # Consolidation: the first post-stall tick is one catch-up tick.
    assert cp.catchup_ticks == dict.fromkeys(cp.schedule, 1)
    dog = result.stacks[-1].watchdog
    assert dog.stalls == dict.fromkeys(cp.schedule, 1)
    assert dog.recoveries["histograms"] == dog.recoveries["forensics"] == 1
    assert result.watchdog_stalls == 6


def test_a_traced_run_archives_what_a_dark_scalar_run_does():
    """A bound tracer ships what a dark control plane ships (one block
    per tick, so one ``_seq`` and one fault draw per block) and binds the
    scalar pipeline: each bundled schedule's archive equals a dark run's
    on that path.  Not the kernel's: there a data-plane digest reaches
    the control plane only at the next flush, which moves what the clock
    skew and the breaker act on."""
    from dataclasses import replace

    from repro.telemetry import provenance

    for name, spec in bundled_chaos().items():
        provenance.enable()
        try:
            traced = run_chaos(spec)
        finally:
            provenance.disable()
        assert traced.run.scenario.monitor.kernel is None, name
        dark = run_chaos(replace(spec, scenario=spec.scenario.clone(batched_path=False)))
        assert traced.passed and dark.passed, name
        assert traced.archive_digest == dark.archive_digest, name


@pytest.mark.parametrize("name", BUNDLES)
def test_a_traced_run_records_one_archive_event_per_archived_document(name):
    """Lineage survives the delivery path's retries: a block the shipper
    delivers from its spool reopens the report context it was shipped
    in, and ``archive`` is recorded only when the archive wrote the
    block (not for an attempt Logstash refused, nor a redelivery dropped
    as a duplicate).  With every event recorded, each schedule's
    ``archive`` events are its archived documents, and on a stalled
    Logstash (which refuses before its filters) they are its
    ``logstash-ship`` events.  ``logstash-ship`` is recorded once the
    outputs took the block, so a bulk write the archive refused records
    none: it counts the archived documents and the redelivered ones
    dropped as duplicates."""
    from collections import Counter

    from repro.telemetry import provenance

    tracer = provenance.enable(sample_rate=1.0, coarse_window=10**6, fine_window=10**6)
    try:
        result = run_chaos(bundled_chaos()[name])
    finally:
        provenance.disable()
    kinds = Counter(ev.kind for ev in tracer.events() if ev.layer == "archiver")
    store = result.run.scenario.archiver.store
    archived = sum(map(store.count, store.indices))
    assert kinds["archive"] == archived > 0
    assert kinds["logstash-ship"] == archived + result.duplicates_dropped
    if name == "archiver-outage":
        assert archived == 32
    if name == "slow-drain":
        assert kinds["archive"] == kinds["logstash-ship"]


def test_chaos_is_byte_reproducible():
    spec = bundled_chaos()["lossy-transport"]
    a = run_chaos(spec)
    b = run_chaos(bundled_chaos()["lossy-transport"])
    assert a.archive_digest == b.archive_digest
    assert a.to_jsonable() == b.to_jsonable()


def test_breaker_transitions_visible_through_telemetry():
    telemetry.enable()
    try:
        result = run_chaos(bundled_chaos()["archiver-outage"])
        assert result.passed, result.summary()
        snap = telemetry.snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        transitions = by_name["repro_breaker_transitions_total"]
        total = sum(s["value"] for s in transitions["series"])
        assert total == len(result.breaker_transitions) > 0
        assert "repro_faults_injected_total" in by_name
        assert "repro_delivery_attempts_total" in by_name
    finally:
        telemetry.disable()
        telemetry.reset()


def test_spec_json_round_trip(tmp_path):
    spec = ChaosSpec.from_seed(4)
    path = tmp_path / "spec.json"
    spec.save(str(path))
    loaded = ChaosSpec.load(str(path))
    assert loaded.to_jsonable() == spec.to_jsonable()
    with pytest.raises(ValueError, match="schema"):
        ChaosSpec.from_jsonable({"schema": "bogus"})


def test_load_spec_resolves_names_files_and_artifacts(tmp_path, bundle_results):
    # Bundled name.
    by_name = load_spec("archiver-outage")
    assert by_name.schedule.has("archiver_outage")
    # Bare FaultSchedule file: paired with the small default workload.
    sched_path = tmp_path / "sched.json"
    FaultSchedule(seed=3, windows=[
        FaultWindow("logstash_stall", 1.0, 0.5)]).save(sched_path)
    from_sched = load_spec(str(sched_path))
    assert from_sched.schedule.has("logstash_stall")
    assert from_sched.scenario.flows, "default workload attached"
    # Failed-run artifact: replays the embedded spec.
    artifact = tmp_path / "artifact.json"
    write_artifact(bundle_results["slow-drain"], str(artifact))
    replay = load_spec(str(artifact))
    assert replay.to_jsonable() == bundle_results["slow-drain"].spec.to_jsonable()


def test_stalled_throughput_tick_windows_over_true_elapsed_time():
    """A deferred extraction tick must not inflate throughput: the
    catch-up tick sees ~2 intervals of bytes over ~2 intervals of time."""
    sim = Simulator()
    install(FaultInjector(
        FaultSchedule(seed=1, windows=[
            FaultWindow("cp_stall", 1.5, 1.2, metric="throughput")]),
        clock=lambda: sim.now))
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    cp.start()
    script = FlowScript(mon)
    rate = 500_000  # bytes/s
    drive_stream(sim, script, rate_bytes_per_s=rate, duration_s=4.0)
    sim.run_until(seconds(4.5))
    assert sum(cp.ticks_deferred.values()) > 0
    assert sum(cp.catchup_ticks.values()) > 0
    series = [s.value for s in cp.flow_samples[MetricKind.THROUGHPUT] if s.value > 0]
    offered_bps = rate * 8
    # Without elapsed-time windowing the catch-up sample would read
    # ~2x the offered rate; with it, every settled sample stays close.
    for v in series[1:-1]:
        assert v < 1.5 * offered_bps, (
            f"sample {v / 1e6:.1f} Mbps vs offered {offered_bps / 1e6:.1f} "
            f"Mbps — catch-up tick mis-windowed")
