"""Counter/Gauge/Histogram semantics, label families, registry."""

import pytest

from repro.telemetry.export import histogram_quantile
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(TelemetryError):
            Counter().inc(-1)

    def test_reset_and_merge(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7
        a.reset()
        assert a.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5


class TestHistogram:
    def test_bucket_boundaries_are_upper_edges(self):
        h = Histogram(buckets=(1, 10, 100))
        for v in (0.5, 1, 5, 10, 99, 100, 101):
            h.observe(v)
        # le=1: {0.5, 1}; le=10: {5, 10}; le=100: {99, 100}; +Inf: {101}
        assert h.counts == [2, 2, 2, 1]
        assert h.count == 7
        assert h.sum == pytest.approx(316.5)
        assert h.min == 0.5 and h.max == 101

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram(buckets=(10, 1))
        with pytest.raises(TelemetryError):
            Histogram(buckets=(1, 1, 2))

    def test_quantile_estimate(self):
        h = Histogram(buckets=(1, 2, 4, 8, 16))
        for v in (1, 1, 2, 3, 5, 9):
            h.observe(v)
        dump = h.dump()
        assert histogram_quantile(dump, 0.0) == 1.0
        assert histogram_quantile(dump, 0.5) == 2.0
        assert histogram_quantile(dump, 1.0) == 16.0

    def test_observe_n_equals_n_observes(self):
        weighted = Histogram(buckets=(1, 10, 100))
        looped = Histogram(buckets=(1, 10, 100))
        for value, n in ((0.5, 3), (10, 1), (64.25, 40), (1000, 2)):
            weighted.observe_n(value, n)
            for _ in range(n):
                looped.observe(value)
        assert weighted.dump() == looped.dump()
        assert weighted.counts == [3, 1, 40, 2] and weighted.count == 46
        assert (histogram_quantile(weighted.dump(), 0.5)
                == histogram_quantile(looped.dump(), 0.5) == 100.0)

    def test_observe_n_of_nothing_is_a_no_op(self):
        h = Histogram(buckets=(1, 10))
        h.observe_n(5, 0)
        assert h.dump() == Histogram(buckets=(1, 10)).dump()
        assert h.min == float("inf") and h.max == float("-inf")

    def test_merge_requires_same_buckets(self):
        a = Histogram(buckets=(1, 2))
        b = Histogram(buckets=(1, 3))
        with pytest.raises(TelemetryError):
            a.merge(b)

    def test_merge_and_reset(self):
        a = Histogram(buckets=(1, 2))
        b = Histogram(buckets=(1, 2))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(50)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        a.reset()
        assert a.count == 0 and a.sum == 0 and a.counts == [0, 0, 0]


class TestFamilies:
    def test_same_labels_same_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("stage",))
        fam.labels("parser").inc()
        fam.labels(stage="parser").inc()
        assert fam.labels("parser").value == 2

    def test_label_count_mismatch(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("a", "b"))
        with pytest.raises(TelemetryError):
            fam.labels("only-one")
        with pytest.raises(TelemetryError):
            fam.labels(a="x", wrong="y")

    def test_cardinality_cap(self):
        reg = MetricsRegistry()
        fam = reg.counter("flows", labels=("fid",))
        fam.max_series = 8
        for i in range(8):
            fam.labels(str(i)).inc()
        with pytest.raises(TelemetryError, match="cardinality"):
            fam.labels("overflow")

    def test_labelless_proxies(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1, 2)).observe(1.5)
        snap = reg.snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["c"]["series"][0]["value"] == 2
        assert by_name["g"]["series"][0]["value"] == 7
        assert by_name["h"]["series"][0]["count"] == 1

    def test_labeled_family_rejects_bare_use(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("stage",))
        with pytest.raises(TelemetryError):
            fam.inc()


class TestRegistry:
    def test_idempotent_same_type(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_label_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", labels=("a",))
        with pytest.raises(TelemetryError):
            reg.counter("x", labels=("b",))

    def test_collector_runs_at_snapshot(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("pulled")
        source = {"v": 0}
        reg.add_collector(lambda r: gauge.set(source["v"]))
        source["v"] = 42
        snap = reg.snapshot()
        assert snap["metrics"][0]["series"][0]["value"] == 42

    def test_reset_zeroes_but_keeps_families(self):
        reg = MetricsRegistry()
        c = reg.counter("x", labels=("l",))
        c.labels("a").inc(5)
        reg.reset()
        assert reg.get("x") is c
        assert c.labels("a").value == 0
