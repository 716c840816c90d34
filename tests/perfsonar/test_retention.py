"""Short-term/long-term retention (OSG-platform-style)."""

import pytest

from repro.perfsonar.opensearch import OpenSearchStore, RetentionPolicy


@pytest.fixture
def loaded_store():
    store = OpenSearchStore()
    # 120 samples, 1/s, two flows interleaved.
    for t in range(120):
        store.index("pscheduler-p4_throughput", {
            "@timestamp": float(t),
            "flow_id": t % 2,
            "value": 100.0 + t,
        })
    return store


def test_policy_validation():
    with pytest.raises(ValueError):
        RetentionPolicy(short_term_s=0)
    with pytest.raises(ValueError):
        RetentionPolicy(long_term_bucket_s=-1)


def test_nothing_pruned_within_window(loaded_store):
    policy = RetentionPolicy(short_term_s=1000.0, long_term_bucket_s=10.0)
    assert policy.apply(loaded_store, "pscheduler-p4_throughput", now_s=120.0) == 0
    assert loaded_store.count("pscheduler-p4_throughput") == 120


def test_old_documents_downsampled_and_pruned(loaded_store):
    policy = RetentionPolicy(short_term_s=60.0, long_term_bucket_s=10.0)
    pruned = policy.apply(loaded_store, "pscheduler-p4_throughput", now_s=120.0)
    assert pruned == 60  # t in [0, 60)
    assert loaded_store.count("pscheduler-p4_throughput") == 60
    # 6 buckets x 2 flows.
    assert loaded_store.count("pscheduler-p4_throughput-longterm") == 12


def test_longterm_values_are_bucket_means(loaded_store):
    policy = RetentionPolicy(short_term_s=60.0, long_term_bucket_s=10.0)
    policy.apply(loaded_store, "pscheduler-p4_throughput", now_s=120.0)
    docs = loaded_store.search("pscheduler-p4_throughput-longterm",
                               term={"flow_id": 0})
    first = next(d for d in docs if d["@timestamp"] == 0.0)
    # flow 0 in bucket [0,10): t = 0,2,4,6,8 -> values 100,102,...,108.
    assert first["value"] == pytest.approx(104.0)
    assert first["samples"] == 5
    assert first["downsampled"] is True


def test_apply_is_idempotent(loaded_store):
    policy = RetentionPolicy(short_term_s=60.0, long_term_bucket_s=10.0)
    policy.apply(loaded_store, "pscheduler-p4_throughput", now_s=120.0)
    assert policy.apply(loaded_store, "pscheduler-p4_throughput", now_s=120.0) == 0
    assert loaded_store.count("pscheduler-p4_throughput-longterm") == 12


def test_empty_index_noop():
    policy = RetentionPolicy()
    assert policy.apply(OpenSearchStore(), "missing", now_s=1e9) == 0


def test_archiver_apply_retention_sweeps_all_indices():
    from repro.core.reports import Block, document_run
    from repro.perfsonar.archiver import Archiver

    archiver = Archiver()
    for t in range(100):
        archiver.sink(Block([document_run({"type": "p4_throughput", "@timestamp": float(t),
                                           "flow_id": 1, "value": 1.0}),
                             document_run({"type": "p4_rtt", "@timestamp": float(t),
                                           "flow_id": 1, "value": 2.0})]))
    policy = RetentionPolicy(short_term_s=50.0, long_term_bucket_s=10.0)
    pruned = archiver.apply_retention(policy, now_s=100.0)
    assert pruned == 100  # 50 from each raw index
    assert archiver.count("p4_throughput") == 50
    # Long-term companions exist and are not re-pruned.
    assert archiver.store.count("pscheduler-p4_throughput-longterm") == 5
    assert archiver.apply_retention(policy, now_s=100.0) == 0


def test_one_flows_metrics_get_their_own_long_term_documents():
    """Alerts for one flow on two metrics (b/s and ms) are bucketed per
    metric, never averaged together."""
    store = OpenSearchStore()
    for t in range(20):
        store.index("pscheduler-p4_alert", {
            "@timestamp": float(t), "metric": "throughput", "flow_id": 7,
            "value": 9e8 + t})
        store.index("pscheduler-p4_alert", {
            "@timestamp": float(t), "metric": "rtt", "flow_id": 7,
            "value": 40.0 + t})
    policy = RetentionPolicy(short_term_s=5.0, long_term_bucket_s=10.0)
    assert policy.apply(store, "pscheduler-p4_alert", now_s=15.0) == 20
    docs = store.search("pscheduler-p4_alert-longterm")
    assert [(d["@timestamp"], d["metric"], d["flow_id"]) for d in docs] == [
        (0.0, "throughput", 7), (0.0, "rtt", 7)]
    assert [d["value"] for d in docs] == [pytest.approx(9e8 + 4.5), 44.5]
    assert [d["samples"] for d in docs] == [10, 10]


def test_labelled_series_get_their_own_long_term_documents():
    store = OpenSearchStore()
    for t in range(10):
        for kind, value in (("a", 1.0), ("b", 3.0)):
            store.index("pscheduler-repro_telemetry", {
                "@timestamp": float(t), "metric": "repro_z",
                "labels": {"kind": kind}, "value": value})
    policy = RetentionPolicy(short_term_s=1.0, long_term_bucket_s=100.0)
    policy.apply(store, "pscheduler-repro_telemetry", now_s=11.0)
    docs = store.search("pscheduler-repro_telemetry-longterm")
    assert [(d["labels"], d["value"], d["samples"]) for d in docs] == [
        ({"kind": "a"}, 1.0, 10), ({"kind": "b"}, 3.0, 10)]
    assert all("flow_id" in d and d["flow_id"] is None for d in docs)
