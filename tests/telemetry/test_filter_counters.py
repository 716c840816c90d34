"""Dropped/aggregated-event counters on the Logstash filters.

PR 1 counted only filter-chain latency and pipeline outcome; these pin
the per-filter counter: default-perfSONAR aggregation collapses per test
type.
"""

from repro import telemetry
from repro.core.reports import Block, document_run
from repro.perfsonar.logstash import AggregateTestFilter


def _series(name):
    snap = telemetry.snapshot()
    for metric in snap["metrics"]:
        if metric["name"] == name:
            return {tuple(sorted(s["labels"].items())): s["value"]
                    for s in metric["series"]}
    return {}


def test_aggregate_filter_counts_collapses_per_type():
    telemetry.enable()
    filt = AggregateTestFilter()
    filt(Block([document_run(doc) for doc in (
        {"type": "throughput",
         "intervals": [{"throughput_bps": 1e8}, {"throughput_bps": 2e8}]},
        {"type": "rtt", "samples_ms": [1.0, 2.0]},
        {"type": "rtt", "samples_ms": [3.0]},
        {"type": "p4_rtt", "value": 1.0})]))  # passthrough: not counted
    assert filt.collapsed == 3
    series = _series("repro_logstash_aggregated_total")
    assert series[(("type", "throughput"),)] == 1
    assert series[(("type", "rtt"),)] == 2


def test_aggregate_filter_output_unchanged_by_instrumentation():
    telemetry.enable()
    filt = AggregateTestFilter()
    out, = filt(Block([document_run(
        {"type": "throughput",
         "intervals": [{"throughput_bps": 1e8}, {"throughput_bps": 3e8}]})])).documents()
    assert out["value"] == 2e8
    assert "intervals" not in out
