"""OpenSearch-like store."""

import itertools
import json
import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.reports import Block, Run, Selection, typed
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
                        lambda *where: built.append(1) or materialise(*where))
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

    def bulk(self, indices, block):
        written = {}
        docs = iter(block.documents())
        for index, run in zip(indices, block):
            for _ in range(run.n):
                # As JSON would carry it: every tuple a list.
                self.index(index, json.loads(json.dumps(next(docs))))
            written[index] = written.get(index, 0) + run.n
        return written

    def columns(self, index, fields, before=None, time_field="@timestamp", default=None):
        docs = [d for d in self._indices.get(index, ())
                if before is None or d.get(time_field, 0.0) < before]
        return [[d.get(name, default) for d in docs] for name in fields]

    def time_ordered(self, index, time_field="@timestamp"):
        """Whether ``tail`` may be asked: every time a number (NaN is in
        no order), in order."""
        times = [d.get(time_field, float("-inf")) for d in self._indices.get(index, ())]
        return all(type(t) in (int, float) and t == t for t in times) and times == sorted(times)

    def tail(self, index, since, time_field="@timestamp", fields=None, terms=None):
        docs = [d for d in self._indices.get(index, ())
                if d.get(time_field, float("-inf")) >= since]
        for name, allowed in (terms or {}).items():
            docs = [d for d in docs if d.get(name) in allowed]
        if fields is not None:
            docs = [{**{k: d[k] for k in fields if k in d},
                     "_id": d["_id"], "_index": d["_index"]} for d in docs]
        return [dict(d) for d in docs]

    aggregate, series = OpenSearchStore.aggregate, OpenSearchStore.series


def reference_retention(policy, store, index, now_s):
    """``RetentionPolicy.apply`` as it was before segments: one column
    read of every field it needs, a bucket key per document."""
    missing = object()
    ids, times, values, flows, metrics, labels = store.columns(
        index, ("_id", policy.time_field, policy.value_field, "flow_id",
                "metric", "labels"),
        before=now_s - policy.short_term_s, time_field=policy.time_field,
        default=missing)
    if not ids:
        return 0
    buckets = {}
    for i, (t, flow_id, metric, label_set) in enumerate(zip(times, flows, metrics, labels)):
        bucket = int((0.0 if t is missing else t) // policy.long_term_bucket_s)
        if type(label_set) is dict:
            label_set = tuple(sorted(label_set.items()))
        key = (bucket, None if flow_id is missing else flow_id,
               None if metric is missing else metric,
               None if label_set is missing else label_set)
        buckets.setdefault(key, []).append(i)
    for (bucket, flow_id, metric, _), members in sorted(
            buckets.items(), key=lambda item: item[0][0]):
        samples = [values[i] for i in members if values[i] is not missing]
        if not samples:
            continue
        first = members[0]
        doc = {policy.time_field: bucket * policy.long_term_bucket_s, "flow_id": flow_id}
        for field, column in (("metric", metrics), ("labels", labels)):
            if column[first] is not missing:
                doc[field] = column[first]
        doc.update({policy.value_field: sum(samples) / len(samples),
                    "samples": len(samples), "downsampled": True})
        store.index(f"{index}-longterm", doc)
    return store.delete(index, ids)


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


def _compare(rows, ref, ids):
    """Every query form, on every index, answered alike by both stores."""
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
        fields = ("_id", "@timestamp", "flow_id", "tags", "_index", "_seq")
        for before in (None, 0.0, 10, 45.5, 200.0):
            assert (_outcome(rows.columns, index, fields, before=before, default="-")
                    == _outcome(ref.columns, index, fields, before=before, default="-"))
        if ref.time_ordered(index):
            for since in (-1.0, 0, 10, 33.3, 99.0, 1e9):
                for query in (dict(), dict(fields=("tags", "flow_id", "_seq")),
                              dict(terms={"flow_id": {1, 2, None}})):
                    assert (_outcome(rows.tail, index, since, **query)
                            == _outcome(ref.tail, index, since, **query)), (since, query)
    for index, doc_id in ids:
        assert _outcome(rows.get, index, doc_id) == _outcome(ref.get, index, doc_id)
    assert rows.get("a", "0") is None and rows.get("a", "01") is None


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

    _compare(rows, ref, ids)
    # One retention sweep over every index: downsample, then prune.
    policy = RetentionPolicy(short_term_s=50.0, long_term_bucket_s=10.0,
                             value_field="_seq")
    for index in ref.indices:
        assert (_outcome(policy.apply, rows, index, now_s=100.0)
                == _outcome(reference_retention, policy, ref, index, now_s=100.0))
    assert 0 < ref.count("c") < sum(index == "c" for index, _ in ids)
    assert ref.count("c-longterm") > 0
    _compare(rows, ref, ids)


# -- the segment store, driven by bulk blocks of runs ---------------------------

#: What a field may hold: the shapes the report path ships, and the ones
#: that would break a naive column layout (None, bool vs int, lists and
#: dicts, a list where another document of the run has a scalar) or a
#: typed one (the int64 edges and an int past them, -0.0 and NaN).
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                    st.sampled_from([0.5, -2.0, 3.0, "p4_rtt", "p4_jitter", "x",
                                     -0.0, float("nan"), 2**63 - 1, -2**63, 2**63]),
                    st.lists(st.sampled_from(["p4-perfsonar", "a"]), max_size=2),
                    st.fixed_dictionaries({"k": st.integers(0, 1)}))
_FIELDS = ("type", "@timestamp", "flow_id", "value", "tags", "counts", "_seq",
           "metric", "labels")
#: A retention series' labels: a dict (values a list where no key can be
#: made of them), or any other value.
_LABELS = st.one_of(st.dictionaries(st.sampled_from(["port", "dir"]),
                                    st.sampled_from(["1", "2", ["x"]]), max_size=2),
                    _VALUES)
_TAILS = [((), ()), (("_seq", "_shipper"), (7, "cp")),
          (("@version", "host", "tags"), ("1", "p4-controlplane", ("p4-perfsonar",)))]


def _stored(value):
    """A value as a run holds it: a top-level list as a tuple."""
    return tuple(value) if type(value) is list else value


@st.composite
def _run(draw, clock):
    """A run of 1-24 documents of one schema: each field shared or a
    column — a list, the column :func:`typed` keeps (an ``array`` where
    it is all floats or all 64-bit ints, else a tuple) or a
    :class:`Selection` of a longer list; ``@timestamp`` drawn from
    ``clock`` (in write order) or freely."""
    keys = tuple(draw(st.lists(st.sampled_from(_FIELDS), min_size=1, unique=True)))
    n = draw(st.sampled_from([1, 1, 2, 3, 8, 24]))
    values, cols = [], []
    for p, key in enumerate(keys):
        varies = n > 1 and draw(st.booleans())
        count = n if varies else 1
        if key == "@timestamp" and clock is not None:
            column = []
            for _ in range(count):
                clock[0] += draw(st.sampled_from([0, 0.5, 3, 10]))
                column.append(clock[0])
        elif key == "labels":
            column = draw(st.lists(_LABELS, min_size=count, max_size=count))
        elif key == "flow_id":
            column = draw(st.lists(st.one_of(st.integers(0, 3), st.none()),
                                   min_size=count, max_size=count))
        else:
            column = draw(st.lists(_VALUES, min_size=count, max_size=count))
        column = [_stored(v) for v in column]
        if varies:
            form = draw(st.sampled_from(["list", "typed", "typed", "selection"]))
            if form == "typed":
                column = typed(column)
            elif form == "selection":
                base = [_stored(v) for v in draw(st.lists(_VALUES, max_size=3))] + column
                column = Selection(base, array("I", range(len(base) - n, len(base))))
            values.append(column)
            cols.append(p)
        else:
            values.append(column[0])
    return Run(keys, tuple(values), tuple(cols), n)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data(), ordered=st.booleans())
def test_segment_store_matches_the_dict_store(data, ordered):
    """Bulk blocks of long runs with shared fields, several schemas in one
    index and in one block, runs of one, a tail, prefix and scattered
    deletes and a retention sweep, then every query form — against the
    dict store, the store as it was before rows.  With ``ordered`` every
    index is written in ``@timestamp`` order, so ``tail`` is asked too.
    Columns come as lists, typed and as selections; every answer is
    compared down to value types (``repr``), so an int read back as a
    float, a lost ``-0.0`` or a ``bool`` become an int shows."""
    rows, ref = OpenSearchStore(), DictStore()
    clock = [0.0] if ordered else None
    ids = []
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        action = data.draw(st.sampled_from(["bulk", "bulk", "bulk", "prefix", "scatter"]))
        index = data.draw(st.sampled_from(["a", "b"]), label="index")
        if action == "bulk":
            runs = data.draw(st.lists(_run(clock), min_size=1, max_size=4), label="runs")
            tail = data.draw(st.sampled_from(_TAILS), label="tail")
            if any(set(tail[0]) & set(run.keys) for run in runs):
                tail = _TAILS[0]
            indices = [data.draw(st.sampled_from([index, "b"])) for _ in runs]
            block = Block(runs, tail)
            written = rows.bulk(indices, block)
            expected = ref.bulk(indices, block)
            assert written == expected
            ids += [(i, d["_id"]) for i in set(indices) for d in ref.search(i)]
        else:
            live = [d["_id"] for d in ref.search(index)]
            if action == "prefix":
                doomed = live[:data.draw(st.integers(0, len(live)), label="cut")]
            else:
                doomed = [doc_id for doc_id in live if data.draw(st.booleans())]
                doomed.append("999999")          # an id the index never had
            assert rows.delete(index, doomed) == ref.delete(index, doomed)
    _compare(rows, ref, ids)
    policy = RetentionPolicy(short_term_s=20.0, long_term_bucket_s=10.0,
                             value_field="value")
    for index in ref.indices:
        assert (_outcome(policy.apply, rows, index, now_s=50.0)
                == _outcome(reference_retention, policy, ref, index, now_s=50.0))
    _compare(rows, ref, ids)


def test_typed_keeps_a_number_in_8_bytes_and_anything_else_as_a_tuple():
    nan = float("nan")
    floats = typed([0.5, -0.0, nan, 1e308])
    assert floats.typecode == "d" and floats.itemsize == 8
    assert repr(list(floats)) == repr([0.5, -0.0, nan, 1e308])
    ints = typed([0, -2**63, 2**63 - 1])
    assert ints.typecode == "q" and list(ints) == [0, -2**63, 2**63 - 1]
    # Mixed, past 64 bits, bools (an int subclass), None, strings: tuples.
    for column in ([1, 2.0], [1, 2**63], [True, False], [1, True], [None, 1.0], ["a"]):
        kept = typed(column)
        assert type(kept) is tuple and repr(kept) == repr(tuple(column))
    assert typed(np.array([0.25, -0.0])).typecode == "d"
    assert typed(np.array([3, -(2**63)], dtype=np.int64)).typecode == "q"
    for column in (np.array([True, False]), np.array([1, 2], dtype=np.uint64)):
        kept = typed(column)
        assert type(kept) is tuple and kept == tuple(column.tolist())
        assert all(type(v) in (bool, int) for v in kept)
