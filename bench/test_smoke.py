"""Smoke test of the benchmark itself: ``pytest bench -q`` (tier-1's
``testpaths`` does not collect it).  Every workload runs at ~1/20 size."""

from __future__ import annotations

import os
import re

import pytest

from bench import layers
from bench.run import declared, run_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = declared()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace, section):
    result, _ = run_workload(workload, seed=7, seconds=0.0, trace=trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:  # the contract: an end-to-end metric is never 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == [os.path.basename(layers.BENCH_DIR)]


def test_layer_map_assigns_every_module_to_one_layer():
    seen = set()
    for folder, _, files in os.walk(layers.SRC_ROOT):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, name), layers.SRC_ROOT)
                assert layers.layer_of_source(rel) in layers.LAYERS, (
                    f"src/repro/{rel} has no layer in bench/layers.py")
                seen.add(rel.replace(os.sep, "/"))
    for key in layers.LAYER_OF:  # no entry may outlive its module
        assert any(rel == key or rel.startswith(key) for rel in seen), key
