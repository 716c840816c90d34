"""The overhead budgets' paired estimator (benchmarks/harness.py)."""

import gc

from benchmarks import harness


def test_paired_median_alternates_which_side_runs_first():
    calls = []

    def side(name):
        def run():
            calls.append(name)
            return 1
        return run

    harness.paired_median(side("a"), side("b"), rounds=4,
                          between=lambda: calls.append("|"))
    assert calls[:2] == ["a", "b"]  # one untimed warm-up each
    assert "".join(calls[2:]) == "ab|ba|ab|ba|"
    assert gc.isenabled()


def test_paired_median_of_a_measurement_against_itself_is_exactly_one(monkeypatch):
    ticks = iter(range(0, 10_000, 7))
    monkeypatch.setattr(harness.time, "perf_counter_ns", lambda: next(ticks))

    def run():
        return harness.timed(lambda: None)

    assert harness.paired_median(run, run, rounds=5) == 1.0
