"""Every telemetry series keeps its value on three pinned runs.

A counter is a read of a tally its component already keeps, so the
numbers must be the ones the components counted: each ``(family,
labels) -> value`` of three runs is pinned in ``pinned_values.json``.
Histograms pin their observation count; the two whose observations are
not wall-clock times pin their whole distribution too.  The runs:

- ``integration``: the instrumented scenario of ``test_integration.py``;
- ``kitchen-sink``: ``bundled_chaos(seed=1)["kitchen-sink"]`` with a
  crash (deferred and catch-up ticks, restarts, watchdog stalls,
  delivery errors);
- ``seed-1``: ``ChaosSpec.from_seed(1)`` with a crash (breaker
  transitions).

The same runs check the family table of docs/observability.md both
ways: every family they register has a row, and every row names a
family they register.
"""

import json
import os
import re

import pytest

from repro import telemetry
from tests.telemetry.test_integration import instrumented_snapshot  # noqa: F401

FIXTURE = os.path.join(os.path.dirname(__file__), "pinned_values.json")
DOC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                   "docs", "observability.md")
RUNS = ("integration", "kitchen-sink", "seed-1")

#: Histograms whose observations are counts, not clock readings.
EXACT = ("repro_archiver_record_fields", "repro_netsim_queue_depth")


def values(snap: dict) -> dict:
    """``family{label=value,...}`` -> value (a histogram's count, or its
    count, sum and bucket counts for the :data:`EXACT` ones)."""
    out = {}
    for fam in snap["metrics"]:
        for series in fam["series"]:
            labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
            key = f"{fam['name']}{{{labels}}}"
            if fam["type"] != "histogram":
                out[key] = series["value"]
            elif fam["name"] in EXACT:
                out[key] = {"count": series["count"], "sum": series["sum"],
                            "counts": series["counts"]}
            else:
                out[key] = {"count": series["count"]}
    return out


def _chaos_snapshot(spec) -> dict:
    from repro.resilience.chaos import run_chaos

    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    try:
        run_chaos(spec)
        return telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.fixture(scope="module")
def pinned_runs(instrumented_snapshot):  # noqa: F811
    from repro.resilience.chaos import ChaosSpec, bundled_chaos, with_crash

    return {
        "integration": instrumented_snapshot,
        "kitchen-sink": _chaos_snapshot(
            with_crash(bundled_chaos(seed=1)["kitchen-sink"])),
        "seed-1": _chaos_snapshot(with_crash(ChaosSpec.from_seed(1))),
    }


@pytest.mark.parametrize("run", RUNS)
def test_every_series_keeps_its_value(pinned_runs, run):
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)[run]
    assert values(pinned_runs[run]) == expected


def test_the_pinned_runs_reach_what_they_are_pinned_for(pinned_runs):
    sink, seed1 = values(pinned_runs["kitchen-sink"]), values(pinned_runs["seed-1"])
    for family in ("repro_cp_tick_deferred_total", "repro_cp_tick_catchup_total",
                   "repro_cp_restarts_total", "repro_watchdog_stalls_total"):
        assert any(key.startswith(family + "{") and value > 0
                   for key, value in sink.items()), family
    assert sink["repro_delivery_attempts_total{outcome=error}"] > 0
    assert any(key.startswith("repro_breaker_transitions_total{") and value > 0
               for key, value in seed1.items())


def _documented_families() -> set:
    with open(DOC, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("## What is instrumented", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"`(repro_[a-z0-9_]+)", table))


def test_the_family_table_names_exactly_the_registered_families(pinned_runs):
    registered = {fam["name"] for snap in pinned_runs.values()
                  for fam in snap["metrics"]}
    documented = _documented_families()
    assert sorted(registered - documented) == [], "families without a row"
    assert sorted(documented - registered) == [], "rows without a family"
