"""Crash-recovery acceptance suite: seeded schedules with a mid-run
``cp_crash`` must recover from checkpoints with zero acked-report loss,
an exactly-once archive, no lost read-flip window (histogram and
time-window packet mass conserve), a green oracle, and data-plane
tallies matching an uncrashed twin run."""

import json
from dataclasses import replace

import pytest

from repro.resilience import checkpoint
from repro.resilience.chaos import (
    bundled_chaos,
    load_spec,
    run_chaos,
    with_crash,
    write_artifact,
)
from repro.resilience.schedule import FaultSchedule, FaultWindow
from repro.resilience.supervisor import SupervisorPolicy

from tests.core.helpers import documents_sha256

CRASH_BUNDLES = ("archiver-outage", "lossy-transport", "cp-stall-skew")


@pytest.fixture(scope="module")
def crash_results():
    """Three seeded schedules, each with a mid-run crash, run once."""
    results = {}
    for name in CRASH_BUNDLES:
        spec = with_crash(bundled_chaos(seed=7)[name])
        results[name] = run_chaos(spec)
    return results


# The archive digest each crash run settles to.  archiver-outage and
# lossy-transport share one: the same crash with no other fault window
# archives the same 27 blocks under the same digest, because neither
# incarnation's breaker opens in either run, so no degradation step
# changes the report stream; the transport faults only delay, drop or
# repeat deliveries that retries and dedup settle to the same archive.
CRASH_DIGESTS = {
    "archiver-outage":
        "1d8a006a55c917c5ab4954e378582bab317504f1195de4d24799ea114985e103",
    "lossy-transport":
        "1d8a006a55c917c5ab4954e378582bab317504f1195de4d24799ea114985e103",
    "cp-stall-skew":
        "9ce7f6f09fae217adbf5eacb84d1e7ae065905970684b1fd1d66eb607da423aa",
}

# The same archives without ``_id``s (``documents_sha256``).  When a
# tick's streams became runs, each run's documents took consecutive
# ``_id``s, so the digests above were re-pinned (from ea18698b... and
# a16a28dc...); these kept the values the per-row path gave them.
CRASH_DIGESTS_WITHOUT_IDS = {
    "archiver-outage":
        "0eabf780da0a0b64830db52487306762b574e53425b003c914a385c48668fc52",
    "lossy-transport":
        "0eabf780da0a0b64830db52487306762b574e53425b003c914a385c48668fc52",
    "cp-stall-skew":
        "be3a549bf4340de2a94ce6f83bbff4ef5e5de4529cccdb1aa320bd8b94b12371",
}


@pytest.mark.parametrize("name", CRASH_BUNDLES)
def test_crash_archive_digest_is_pinned(crash_results, name):
    result = crash_results[name]
    assert result.archive_digest == CRASH_DIGESTS[name]
    assert (documents_sha256(result.run.scenario.archiver.store)
            == CRASH_DIGESTS_WITHOUT_IDS[name])
    if name != "cp-stall-skew":
        assert result.archived_unique == 27
        assert all(not s.breaker.transitions for s in result.stacks)


@pytest.mark.parametrize("name", CRASH_BUNDLES)
def test_crash_recovery_settles_clean(crash_results, name):
    result = crash_results[name]
    assert result.recovery is not None
    assert result.passed, result.summary()
    # The recovery invariants, spelled out:
    assert result.recovery.kills >= 1, "the schedule must actually kill the CP"
    assert result.recovery.restarts == result.recovery.kills
    assert not result.recovery.gave_up
    assert result.recovery.checkpoints_written > 0
    assert not result.missing_acked_seqs, \
        "acked reports must survive the crash (across all incarnations)"
    assert not result.archived_duplicate_seqs, \
        "redelivered spool entries must dedup, not double-archive"
    assert not result.recovery.conservation_failures, \
        "no read-flip window may be lost or double-counted"
    assert not result.recovery.twin_failures, \
        "data-plane tallies must match the uncrashed twin"
    assert result.oracle_passed
    assert result.injections.get("cp_crash", 0) > 0


def test_crash_recovery_is_byte_reproducible():
    spec = with_crash(bundled_chaos(seed=7)["lossy-transport"])
    a = run_chaos(spec, run_twin=False)
    b = run_chaos(with_crash(bundled_chaos(seed=7)["lossy-transport"]),
                  run_twin=False)
    assert a.passed and b.passed
    assert a.archive_digest == b.archive_digest
    assert (a.recovery.kills, a.recovery.restarts,
            a.recovery.checkpoints_written) == \
        (b.recovery.kills, b.recovery.restarts, b.recovery.checkpoints_written)


def test_crash_arguments_require_a_crash_window(tmp_path):
    # A checkpoint directory or a restart policy means nothing to a run
    # whose schedule never crashes the control plane.
    spec = bundled_chaos(seed=7)["archiver-outage"]
    with pytest.raises(ValueError, match="cp_crash"):
        run_chaos(spec, checkpoint_dir=str(tmp_path))
    with pytest.raises(ValueError, match="cp_crash"):
        run_chaos(spec, policy=SupervisorPolicy())


def test_supervisor_gives_up_when_the_window_outlasts_its_patience():
    spec = with_crash(bundled_chaos(seed=7)["archiver-outage"],
                      duration_s=2.5)
    result = run_chaos(
        spec, policy=SupervisorPolicy(max_restarts=2), run_twin=False)
    assert result.recovery.gave_up
    assert result.recovery.restarts == 0
    assert not result.passed
    assert any("gave up" in f for f in result.failures())


# The keys a crash run's artifact carries: the chaos books plus the
# recovery books, flat.
CRASH_ARTIFACT_KEYS = {
    "acked", "archive_digest", "archived_duplicate_seqs", "archived_unique",
    "breaker_transitions", "catchup_ticks", "checkpoints_skipped",
    "checkpoints_written", "conservation_failures", "dead_letter_evictions",
    "degrade_events", "duplicates_dropped", "escalations", "failed_attempts",
    "failures", "gave_up", "injections", "kills", "malformed_dropped",
    "missing_acked_seqs", "oracle_checks", "oracle_failures", "oracle_passed",
    "passed", "reports_suppressed", "restarts", "restore_events", "schema",
    "shipped", "shipper", "spec", "still_pending", "ticks_deferred",
    "twin_failures", "watchdog_stalls",
}


def test_a_gave_up_crash_artifact_round_trips_through_the_cli(tmp_path,
                                                              capsys):
    # The artifact carries the spec, not the supervisor policy: the CLI
    # replays under the default one, so the window outlasts its five
    # attempts too (a 2.5 s window recovers on the fourth).
    from repro.cli import main

    spec = with_crash(bundled_chaos(seed=7)["archiver-outage"],
                      duration_s=6.0)
    result = run_chaos(spec, run_twin=False)
    assert result.recovery.gave_up
    artifact = tmp_path / "gave-up.json"
    write_artifact(result, str(artifact))
    doc = json.loads(artifact.read_text())
    assert set(doc) == CRASH_ARTIFACT_KEYS
    assert doc["failures"] == result.failures()
    replay = load_spec(str(artifact))
    assert replay.schedule.has("cp_crash")
    assert replay.to_jsonable() == spec.to_jsonable()
    capsys.readouterr()
    rc = main(["chaos", "-q", "--crash", "--schedule", str(artifact),
               "--artifact-dir", str(tmp_path / "replay")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL: supervisor gave up restarting the control plane" in out
    replayed = json.loads((tmp_path / "replay" / "chaos-gave-up.json")
                          .read_text())
    assert replayed["failures"] == doc["failures"]
    assert replayed["archive_digest"] == doc["archive_digest"]


def test_dead_letter_evictions_count_once_across_a_restart():
    # Incarnation 0 evicts five blocks during the outage and checkpoints
    # that count; r1 restores it and evicts none.  Summing each stack's
    # counter as it stands would count those five twice.
    base = bundled_chaos(seed=7)["archiver-outage"]
    spec = replace(base, schedule=FaultSchedule(seed=7, windows=[
        FaultWindow("archiver_outage", 0.5, 3.0)]),
        spool_limit=2, dead_letter_limit=1)
    result = run_chaos(with_crash(spec, start_s=3.0), run_twin=False)
    first, restarted = result.stacks
    assert first.shipper.dead_letter_evictions == 5
    assert restarted.restored_evictions == 5
    assert restarted.shipper.dead_letter_evictions == 5
    assert result.dead_letter_evictions == 5
    assert "5 blocks lost to dead-letter eviction" in result.failures()


def test_escalation_after_failed_attempts():
    spec = with_crash(bundled_chaos(seed=7)["archiver-outage"])
    result = run_chaos(
        spec, policy=SupervisorPolicy(escalate_after=1), run_twin=False)
    assert result.passed, result.summary()
    assert result.recovery.failed_attempts >= 1, \
        "the crash window must outlast the first restart attempt"
    assert result.recovery.escalations >= 1, \
        "a restart after failed attempts must escalate (degraded mode)"


def test_checkpoint_files_survive_in_a_named_dir(tmp_path):
    spec = with_crash(bundled_chaos(seed=7)["archiver-outage"])
    result = run_chaos(spec, checkpoint_dir=str(tmp_path), run_twin=False)
    assert result.passed, result.summary()
    store = checkpoint.CheckpointStore(str(tmp_path))
    assert store.paths(), "checkpoints must be on disk after the run"
    doc = store.latest()
    assert doc["schema"] == checkpoint.CHECKPOINT_SCHEMA
    assert "dataplane_digest" in doc and "shipper" in doc


def test_shared_checkpoint_dir_across_runs_never_restores_stale_state(tmp_path):
    # Regression: the CLI reuses one --checkpoint-dir for every
    # schedule.  The second run's manager must resume the store's
    # numbering so its own checkpoints sort newest — a manager
    # restarting at seq 0 would leave the first run's files as
    # ``latest()`` and recovery would restore the wrong run's state
    # (double-counted windows, alien ack books).
    a = run_chaos(with_crash(bundled_chaos(seed=7)["archiver-outage"]),
                  checkpoint_dir=str(tmp_path), run_twin=False)
    b = run_chaos(with_crash(bundled_chaos(seed=7)["lossy-transport"]),
                  checkpoint_dir=str(tmp_path), run_twin=False)
    assert a.passed, a.summary()
    assert b.passed, b.summary()


def test_workload_inherent_oracle_misses_do_not_indict_recovery():
    # Seed 7's traffic mix breaches a histogram accuracy tolerance once
    # histograms are enabled — crash or no crash (the uncrashed twin
    # fails the same check).  The twin-differential attribution keeps a
    # workload-inherent miss from failing the recovery verdict, while
    # any failure unique to the crashed run still would.
    from repro.resilience.chaos import ChaosSpec

    result = run_chaos(with_crash(ChaosSpec.from_seed(7)))
    assert result.passed, result.summary()
    for failure in result.oracle_failures:
        assert "workload-inherent" in failure, failure


def test_compare_paths_green_with_checkpointing_enabled(tmp_path):
    # The manager holds no control-plane reference: compare-paths builds
    # two control planes (batched + scalar) against the one installed
    # manager, and both paths must still be equivalent end to end.
    from repro.validation.equivalence import compare_paths
    from repro.validation.scenarios import ScenarioSpec

    manager = checkpoint.install_manager(checkpoint.CheckpointManager(
        checkpoint.CheckpointStore(str(tmp_path))))
    try:
        cmp = compare_paths(ScenarioSpec.from_seed(5))
    finally:
        checkpoint.uninstall_manager()
    assert cmp.passed, cmp.summary()
    assert manager.captures > 0, \
        "both control planes must have been checkpointing during the run"
