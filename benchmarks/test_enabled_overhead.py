"""What the optional subsystems cost switched on: timed, no budget.

Each test runs one enabled path end to end under the benchmark timer
and checks that it did its work.  Switched *off*, the same subsystems
cost one ``is None`` test per site; that is pinned as a structure, not
timed, by tests/test_disabled_guards.py (docs/observability.md,
"Overhead budgets").
"""

from benchmarks.harness import enabled_stage_run


def test_histogram_pipeline_wall_time(once):
    """24k packet events binned on both match paths, read-flip
    extraction ticks, percentiles, shipped distribution reports."""
    cp, shipped = once(enabled_stage_run, histograms_enabled=True)
    assert cp.histograms.ticks >= 8
    assert any(d.get("type") == "repro-histogram-v1"
               for d in shipped if isinstance(d, dict)), \
        "enabled run shipped no distribution reports"
    binned = (int(cp.histograms.rtt_cumulative.sum())
              + int(cp.monitor.rtt_loss.rtt_hist.snapshot().sum()))
    assert binned >= 8000


def test_forensics_pipeline_wall_time(once):
    """24k packet events recorded into the coarsening windows on the
    TAP-pair match path, bank-flip extraction ticks folding into the
    queue-ancestry index, one culprit query over the whole run."""
    def run():
        cp, _ = enabled_stage_run(forensics_enabled=True)
        return cp, cp.forensics.query(None, 0, cp.sim.now)

    cp, report = once(run)
    assert cp.forensics.ticks >= 8
    assert cp.monitor.queue.time_windows.ops >= 8000
    assert report is not None and report.culprits
    assert report.culprits[0]["bytes"] > 0


def test_chaos_run_wall_time(once):
    """One full chaos run (fault schedule + shipper + breaker + oracle)."""
    from repro.resilience.chaos import bundled_chaos, run_chaos

    result = once(run_chaos, bundled_chaos()["kitchen-sink"])
    assert result.passed, result.summary()


def test_crash_recovery_wall_time(once):
    """One full crash-recovery run (checkpointing on every destructive
    step + supervised kill/restart + exactly-once settle)."""
    from repro.resilience.chaos import bundled_chaos, run_chaos, with_crash

    spec = with_crash(bundled_chaos()["archiver-outage"])
    result = once(run_chaos, spec, run_twin=False)
    assert result.passed, result.summary()
    assert result.recovery.checkpoints_written > 0
