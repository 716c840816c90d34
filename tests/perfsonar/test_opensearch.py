"""OpenSearch-like store."""

import itertools
import random

import pytest

from repro.perfsonar.opensearch import OpenSearchStore, RetentionPolicy


@pytest.fixture
def store():
    s = OpenSearchStore()
    for i in range(5):
        s.index("metrics", {"@timestamp": float(i), "value": i * 10.0,
                            "flow_id": i % 2})
    return s


def test_index_assigns_unique_ids(store):
    i1 = store.index("metrics", {"value": 1})
    i2 = store.index("metrics", {"value": 2})
    assert i1 != i2


def test_get_by_id(store):
    doc_id = store.index("other", {"value": 42})
    assert store.get("other", doc_id)["value"] == 42
    assert store.get("other", "nope") is None


def test_count_and_indices(store):
    assert store.count("metrics") == 5
    assert store.count("missing") == 0
    assert "metrics" in store.indices


def test_term_search(store):
    docs = store.search("metrics", term={"flow_id": 1})
    assert len(docs) == 2
    assert all(d["flow_id"] == 1 for d in docs)


def test_time_range_search(store):
    docs = store.search("metrics", time_range=(1.0, 3.0))
    assert [d["@timestamp"] for d in docs] == [1.0, 2.0, 3.0]


def test_sort_and_size(store):
    docs = store.search("metrics", sort_field="value", size=2)
    assert [d["value"] for d in docs] == [0.0, 10.0]


def test_search_returns_copies(store):
    doc = store.search("metrics")[0]
    doc["value"] = -1
    assert store.search("metrics")[0]["value"] != -1


def test_aggregations(store):
    assert store.aggregate("metrics", "value", "min") == 0.0
    assert store.aggregate("metrics", "value", "max") == 40.0
    assert store.aggregate("metrics", "value", "avg") == 20.0
    assert store.aggregate("metrics", "value", "sum") == 100.0
    assert store.aggregate("metrics", "value", "count") == 5.0
    assert store.aggregate("metrics", "value", "p95") == pytest.approx(38.0)


def test_aggregate_empty_and_unknown(store):
    assert store.aggregate("missing", "value", "avg") == 0.0
    with pytest.raises(ValueError):
        store.aggregate("metrics", "value", "median")


def test_series(store):
    series = store.series("metrics", term={"flow_id": 0})
    assert series == [(0.0, 0.0), (2.0, 20.0), (4.0, 40.0)]


def test_search_returns_fresh_lists(store):
    """A caller mutating a returned document's list cannot reach the
    store either (the row keeps a tuple)."""
    store.index("tagged", {"value": 1, "tags": ["a"]})
    store.search("tagged")[0]["tags"].append("b")
    store.get("tagged", store.search("tagged")[0]["_id"])["tags"].append("c")
    assert store.search("tagged")[0]["tags"] == ["a"]


def test_search_builds_only_surviving_documents(store, monkeypatch):
    built = []
    materialise = store._document
    monkeypatch.setattr(store, "_document",
                        lambda index, row: built.append(1) or materialise(index, row))
    assert len(store.search("metrics", size=1)) == 1
    assert len(store.search("metrics", term={"flow_id": 1},
                            time_range=(2.0, 9.0), sort_field="value")) == 1
    assert len(built) == 2


# -- the row store against the dict store it replaced ---------------------------


class DictStore:
    """The store as it was before rows (one dict per document, copied in
    and out): the reference the row store is driven against."""

    def __init__(self):
        self._indices, self._ids = {}, itertools.count(1)

    def index(self, index, document):
        stored = dict(document)
        stored["_id"] = doc_id = str(next(self._ids))
        stored["_index"] = index
        self._indices.setdefault(index, []).append(stored)
        return doc_id

    def get(self, index, doc_id):
        return next((dict(d) for d in self._indices.get(index, ())
                     if d["_id"] == doc_id), None)

    count = lambda self, index: len(self._indices.get(index, ()))  # noqa: E731
    indices = property(lambda self: sorted(self._indices))

    def delete(self, index, doc_ids):
        docs, gone = self._indices.get(index, []), set(doc_ids)
        kept = [d for d in docs if d["_id"] not in gone]
        removed, docs[:] = len(docs) - len(kept), kept
        return removed

    def search(self, index, term=None, time_range=None,
               time_field="@timestamp", sort_field=None, size=None):
        docs = list(self._indices.get(index, ()))
        if term:
            docs = [d for d in docs if all(d.get(k) == v for k, v in term.items())]
        if time_range is not None:
            lo, hi = time_range
            docs = [d for d in docs if lo <= d.get(time_field, float("-inf")) <= hi]
        if sort_field is not None:
            docs.sort(key=lambda d: d.get(sort_field, 0))
        return [dict(d) for d in docs[:size]]

    def columns(self, index, fields, before, time_field="@timestamp", default=None):
        docs = [d for d in self._indices.get(index, ())
                if d.get(time_field, 0.0) < before]
        return [[d.get(name, default) for d in docs] for name in fields]

    aggregate, series = OpenSearchStore.aggregate, OpenSearchStore.series


def _random_documents(rng, n):
    """Shapes this system ships, and the ones that would break a naive
    row layout: a handful of schemas with shuffled key order and missing
    fields, None, bool vs int, nested containers, envelopes, and — since
    schemas recur — a list where the schema's first document had a
    scalar, and the reverse."""
    fields = {
        "@timestamp": lambda: rng.choice([float(rng.randrange(100)), rng.randrange(100)]),
        "flow_id": lambda: rng.choice([None, 0, 1, 2, True]),
        "value": lambda: rng.choice([0.5, 3, -2.0, False]),
        "type": lambda: rng.choice(["p4_rtt", "repro-histogram-v1"]),
        "tags": lambda: rng.choice([["p4-perfsonar"], [], "untagged", ["a", ["b"]]]),
        "counts": lambda: rng.choice([[1, 2, 3], 7, None]),
        "culprits": lambda: [{"flow_id": rng.randrange(3), "bytes": 10}],
        "_seq": lambda: rng.randrange(1000),
        "_shipper": lambda: "p4-controlplane",
        "_id": lambda: "caller-supplied",
    }
    layouts = [rng.sample(sorted(fields), rng.randrange(3, len(fields) + 1))
               for _ in range(6)]
    return [{k: fields[k]() for k in rng.choice(layouts)} for _ in range(n)]


def _outcome(call, *args, **kwargs):
    """The result down to key order and bool-vs-int, or the exception
    type (``series`` raises ``KeyError`` on a document that has the value
    field but not the time field, in both stores)."""
    try:
        return repr(call(*args, **kwargs))
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(5))
def test_row_store_matches_the_dict_store(seed):
    rng = random.Random(seed)
    rows, ref = OpenSearchStore(), DictStore()
    ids = []
    for doc in _random_documents(rng, 300):
        index = rng.choice(["a", "b", "c"])
        if index == "c":      # the policy sorts buckets by (time, flow_id)
            doc["flow_id"] = rng.randrange(3)
        before = repr(doc)
        ids.append((index, rows.index(index, doc)))
        assert ids[-1][1] == ref.index(index, doc)
        assert repr(doc) == before, "indexing must not touch the caller's document"

    def compare():
        assert rows.indices == ref.indices
        for index in ref.indices + ["missing"]:
            assert rows.count(index) == ref.count(index)
            queries = [dict(term=t, time_range=r, sort_field=s, size=n)
                       for t in (None, {"flow_id": 1}, {"tags": ["p4-perfsonar"]},
                                 {"flow_id": None, "type": "p4_rtt"},
                                 {"_index": index, "counts": [1, 2, 3]})
                       for r in (None, (10, 60.0))
                       for s in (None, "@timestamp", "_seq")
                       for n in (None, 0, 1, 7)]
            for query in queries:
                assert (_outcome(rows.search, index, **query)
                        == _outcome(ref.search, index, **query)), query
            for term in (None, {"flow_id": 2}):
                for agg in ("min", "max", "avg", "sum", "count", "p95", "median"):
                    assert (_outcome(rows.aggregate, index, "@timestamp", agg, term=term)
                            == _outcome(ref.aggregate, index, "@timestamp", agg, term=term))
                for value_field in ("_seq", "@timestamp"):
                    assert (_outcome(rows.series, index, value_field, term=term)
                            == _outcome(ref.series, index, value_field, term=term))
        for index, doc_id in ids:
            assert _outcome(rows.get, index, doc_id) == _outcome(ref.get, index, doc_id)
        assert rows.get("a", "0") is None and rows.get("a", "01") is None

    compare()
    # One retention sweep over every index: downsample, then prune.
    policy = RetentionPolicy(short_term_s=50.0, long_term_bucket_s=10.0,
                             value_field="_seq")
    for index in ref.indices:
        assert (_outcome(policy.apply, rows, index, now_s=100.0)
                == _outcome(policy.apply, ref, index, now_s=100.0))
    assert 0 < ref.count("c") < sum(index == "c" for index, _ in ids)
    assert ref.count("c-longterm") > 0
    compare()
