"""Differential validation of the data-plane RTT histogram.

The acceptance criterion for the histogram subsystem: on a real TCP
scenario, the p50/p99 extracted from the data-plane bins must agree with
numpy percentiles of the oracle's per-packet RTT samples within the
declared ``rtt_distribution_ms`` tolerance — and a corrupted histogram
must be caught.
"""

from __future__ import annotations

import pytest

from repro.validation.scenarios import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def hist_outcome():
    """One clean seed-0 run with histograms enabled."""
    spec = ScenarioSpec.from_seed(0).clone(histograms=True)
    run = spec.build()
    run.run()
    report = run.check()
    return spec, run, report


def test_spec_round_trips_histogram_flag():
    spec = ScenarioSpec.from_seed(0).clone(histograms=True)
    clone = spec.clone()
    assert clone.histograms is True
    # Seed derivation itself never flips the flag: corpus determinism.
    assert ScenarioSpec.from_seed(0).histograms is False


def test_histograms_wired_into_validation_run(hist_outcome):
    _, run, _ = hist_outcome
    mon = run.scenario.monitor
    assert mon.rtt_loss.rtt_hist is not None
    assert mon.queue.qdepth_hist is not None
    assert run.scenario.control_plane.histograms is not None
    assert int(mon.rtt_loss.rtt_hist.snapshot().sum()) \
        + int(run.scenario.control_plane.histograms.rtt_cumulative.sum()) > 0


def test_distribution_percentiles_match_oracle(hist_outcome):
    _, _, report = hist_outcome
    dist_checks = [r for r in report.results
                   if r.metric.startswith("rtt_distribution_")]
    assert dist_checks, (
        "no rtt_distribution checks emitted — all flows skipped?\n"
        + report.summary())
    assert {r.metric for r in dist_checks} == {"rtt_distribution_p50",
                                               "rtt_distribution_p99"}
    for check in dist_checks:
        assert check.passed, (
            f"{check.metric} {check.subject}: p4={check.p4_value:.2f} ms "
            f"truth={check.truth_value:.2f} ms ({check.tolerance})")
    assert report.passed, report.summary()


def test_disabled_run_emits_no_distribution_checks(seed0_outcome):
    _, _, report = seed0_outcome
    assert not any(r.metric.startswith("rtt_distribution_")
                   for r in report.results)


def test_mutation_scaled_histogram_is_caught():
    """Corrupt the observe path (values doubled before binning): the
    distribution check must fail while scalar RTT checks stay clean.
    Patching a per-packet method only bites on the scalar twin — the
    batched kernel bins through its own vectorised path (its units are
    wrapped and corrupted in test_batch_mutation.py instead)."""
    spec = ScenarioSpec.from_seed(0).clone(histograms=True,
                                           batched_path=False)
    run = spec.build()
    hist = run.scenario.monitor.rtt_loss.rtt_hist
    orig = hist.observe
    hist.observe = lambda idx, v: orig(idx, 2 * v)
    run.run()
    report = run.check()
    failed = [r for r in report.failures
              if r.metric.startswith("rtt_distribution_")]
    assert failed, "doubled histogram values went undetected"
