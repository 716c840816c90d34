"""Exporter formats and the JSON ⇄ Prometheus round-trip property."""

import json

from repro.telemetry.export import (
    render_table,
    to_json,
    to_prometheus_text,
)
from repro.telemetry.metrics import MetricsRegistry


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_events_total", "events").inc(123)
    gauges = reg.gauge("repro_depth", "queue depth", labels=("queue",))
    gauges.labels("ingress").set(7)
    gauges.labels("egress").set(0.5)
    hist = reg.histogram("repro_latency_ns", "latency", buckets=(10, 100, 1000))
    for v in (5, 50, 500, 5000):
        hist.observe(v)
    return reg


def test_prometheus_text_shape():
    text = to_prometheus_text(sample_registry().snapshot())
    assert "# TYPE repro_events_total counter" in text
    assert "repro_events_total 123" in text
    assert '# TYPE repro_depth gauge' in text
    assert 'repro_depth{queue="ingress"} 7' in text
    assert 'repro_depth{queue="egress"} 0.5' in text
    assert "# TYPE repro_latency_ns histogram" in text
    # Cumulative bucket counts, ending at +Inf == _count.
    assert 'repro_latency_ns_bucket{le="10"} 1' in text
    assert 'repro_latency_ns_bucket{le="100"} 2' in text
    assert 'repro_latency_ns_bucket{le="1000"} 3' in text
    assert 'repro_latency_ns_bucket{le="+Inf"} 4' in text
    assert "repro_latency_ns_sum 5555" in text
    assert "repro_latency_ns_count 4" in text


def test_prometheus_label_escaping():
    reg = MetricsRegistry()
    reg.counter("c", labels=("l",)).labels('he said "hi"\\').inc()
    text = to_prometheus_text(reg.snapshot())
    assert 'l="he said \\"hi\\"\\\\"' in text


def test_metric_name_sanitised():
    reg = MetricsRegistry()
    reg.counter("weird.name-with chars").inc()
    text = to_prometheus_text(reg.snapshot())
    assert "weird_name_with_chars 1" in text


def test_json_round_trip_is_lossless():
    snap = sample_registry().snapshot()
    assert json.loads(to_json(snap)) == snap


def test_json_then_prometheus_matches_direct_prometheus():
    """The round-trip property: a snapshot that went through JSON renders
    identical Prometheus text."""
    snap = sample_registry().snapshot()
    assert to_prometheus_text(json.loads(to_json(snap))) == to_prometheus_text(snap)


def test_weighted_observations_export_like_repeated_ones():
    """``observe_n`` is invisible downstream: both exporters render what
    ``n`` single observations would have rendered, and it survives the
    JSON round trip."""
    def registry(weighted: bool) -> MetricsRegistry:
        reg = MetricsRegistry()
        hist = reg.histogram("repro_p4_packet_ns", "per packet",
                             labels=("pipeline",)).labels("monitor")
        for value, n in ((6144, 4096), (5120, 1182), (300, 7)):
            if weighted:
                hist.observe_n(value, n)
            else:
                for _ in range(n):
                    hist.observe(value)
        return reg

    weighted, looped = registry(True).snapshot(), registry(False).snapshot()
    assert to_json(weighted) == to_json(looped)
    assert to_prometheus_text(weighted) == to_prometheus_text(looped)
    assert json.loads(to_json(weighted)) == weighted
    assert "repro_p4_packet_ns_count{pipeline=\"monitor\"} 5285" in \
        to_prometheus_text(weighted)


def test_render_table():
    table = render_table(sample_registry().snapshot())
    assert "repro_events_total" in table
    assert "queue=ingress" in table
    assert "n=4" in table  # histogram summarised, not raw


def test_render_table_empty():
    assert "no metrics" in render_table({"metrics": []})


def test_histogram_quantile_from_dump():
    from repro.telemetry.export import histogram_quantile
    from repro.telemetry.metrics import Histogram

    hist = Histogram(buckets=(10, 100, 1000))
    for v in (5, 50, 500, 5000):
        hist.observe(v)
    dump = hist.dump()
    # Estimates match the live object's bucket-upper-bound method.
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert histogram_quantile(dump, q) == hist.quantile(q)
    assert histogram_quantile(dump, 0.5) == 100
    assert histogram_quantile(dump, 0.99) == 5000  # overflow → observed max


def test_histogram_quantile_empty_and_bounds():
    import pytest

    from repro.telemetry.export import histogram_quantile

    empty = {"buckets": [10, 100], "counts": [0, 0, 0], "count": 0,
             "sum": 0.0, "min": None, "max": None}
    assert histogram_quantile(empty, 0.5) == 0.0
    with pytest.raises(ValueError):
        histogram_quantile(empty, 1.5)


def test_render_table_shows_quantiles():
    table = render_table(sample_registry().snapshot())
    assert "p50=" in table and "p90=" in table and "p99=" in table


def test_histogram_quantile_foreign_dump_hardening():
    """Dumps built outside ``Histogram.dump()`` — merged histogram-extern
    rows, hand-written dicts, partially-filled documents — must never
    crash or leak NaN/inf into the estimate."""
    import math

    from repro.telemetry.export import histogram_quantile

    # Missing "count": derived from the bins.
    assert histogram_quantile(
        {"buckets": [10, 100], "counts": [0, 4, 0]}, 0.5) == 100
    # Missing/None counts and buckets: empty series, not a crash.
    assert histogram_quantile({}, 0.5) == 0.0
    assert histogram_quantile({"counts": None, "buckets": None}, 0.5) == 0.0
    # Overflow path with a poisoned max: falls back to the last bound.
    for bad_max in (None, math.nan, math.inf, -math.inf):
        est = histogram_quantile(
            {"buckets": [10, 100], "counts": [0, 0, 3], "count": 3,
             "max": bad_max}, 0.99)
        assert est == 100
        assert math.isfinite(est)
    # No buckets at all on the overflow path: 0.0, still finite.
    assert histogram_quantile({"counts": [5], "count": 5}, 0.5) == 0.0
    # q extremes stay exact on a foreign dump.
    dump = {"buckets": [10, 100], "counts": [2, 2, 0], "count": 4}
    assert histogram_quantile(dump, 0.0) == 10
    assert histogram_quantile(dump, 1.0) == 100
