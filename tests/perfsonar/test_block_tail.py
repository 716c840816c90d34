"""A block's shared fields travel once, as its tail.

Every document is its run's fields with its block's tail appended: the
shipper puts its ``(_seq, _shipper)`` envelope there and the metadata
filter its Report_v2 fields, once per block, and the archive stores one
reference to the tail per segment.  Read back, every document is what
it was when each document carried its own copy, key order included —
checked against a store that keeps each document as a run of one with
the tail folded in, on the direct path, the shipper path and a chaos
run.
"""

import json

import pytest

from repro.core.reports import Block, Run, document_run
from repro.netsim.engine import Simulator
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.logstash import (AggregateTestFilter, LogstashPipeline,
                                      OpenSearchOutputPlugin, make_type_filter,
                                      opensearch_metadata_filter)
from repro.perfsonar.opensearch import OpenSearchStore
from repro.resilience.delivery import FaultyTransport, ResilientShipper
from repro.resilience.faults import FaultInjector, install, uninstall
from repro.resilience.schedule import FaultSchedule, FaultWindow
from repro.telemetry import hooks

from tests.perfsonar.test_report_block import run_scenario

ENVELOPE = ("_seq", "_shipper")


def test_one_bulk_stores_one_tail_for_all_its_rows():
    store = OpenSearchStore()
    indices = ["a", "b", "a", "a", "b"]
    rows = [document_run({"type": kind, "value": float(i)})
            for i, kind in enumerate(indices)]
    tail = (ENVELOPE, (1, "cp"))
    assert store.bulk(indices, Block(rows, tail)) == {"a": 3, "b": 2}
    store.bulk(["a"], Block(rows[:1], (ENVELOPE, (2, "cp"))))
    stored = [seg.tail for index in ("a", "b") for seg in store._indices[index].segments]
    assert len(stored) == 6 and sum(t is tail for t in stored) == 5
    assert [d["_seq"] for d in store.search("a")] == [1, 1, 1, 2]
    assert list(store.search("b")[0]) == ["type", "value", "_seq", "_shipper",
                                          "_id", "_index"]


def _folding(monkeypatch):
    """Make every store keep each document as a run of one with its tail
    folded into it: the layout in which every document carried its own
    copy."""
    bulk = OpenSearchStore.bulk

    def folded(self, indices, block):
        return bulk(self, [index for index, run in zip(indices, block) for _ in range(run.n)],
                    Block([Run(*row) for row in block.folded()]))

    monkeypatch.setattr(OpenSearchStore, "bulk", folded)


def _reads(store):
    """Every read the store offers, as JSON text (key order included)."""
    out = []
    for index in store.indices:
        docs = store.search(index)
        ids = [d["_id"] for d in docs]
        out += [
            docs,
            store.search(index, term={"host": "p4-controlplane"}, sort_field="_seq"),
            store.tail(index, 0.0),
            store.tail(index, 0.0, fields=("value", "tags", "_seq", "type")),
            store.tail(index, 0.0, terms={"_shipper": {"p4-controlplane"}}),
            store.columns(index, ("_id", "type", "tags", "@version", "_seq"),
                          before=float("inf")),
            [store.get(index, doc_id) for doc_id in ids[::7]],
            store.series(index, value_field="_seq"),
        ]
    return json.dumps(out)


def _stores(monkeypatch, run):
    """The stores ``run`` builds, read, with tails kept and folded."""
    reads = []
    for fold in (False, True):
        built = []
        init = OpenSearchStore.__init__

        def collect(self, _init=init):
            _init(self)
            built.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(OpenSearchStore, "__init__", collect)
            if fold:
                _folding(patch)
            run()
        reads.append([_reads(store) for store in built])
    return reads


@pytest.mark.parametrize("path", ["direct", "shipper"])
def test_documents_read_back_as_when_every_row_carried_its_tail(monkeypatch, path):
    def ship(sim, sink):
        return ResilientShipper(sim, FaultyTransport(sink))

    kept, folded = _stores(monkeypatch,
                           lambda: run_scenario(ship if path == "shipper" else None))
    assert kept == folded
    assert ('"_seq"' in kept[0]) is (path == "shipper")


def test_a_chaos_run_reads_back_as_when_every_row_carried_its_tail(monkeypatch):
    from repro.resilience.chaos import bundled_chaos, run_chaos

    digests = []

    def run():
        result = run_chaos(bundled_chaos(seed=7)["lossy-transport"])
        assert result.passed
        digests.append(result.archive_digest)

    kept, folded = _stores(monkeypatch, run)
    assert kept == folded and digests[0] == digests[1]


def test_a_field_in_the_tail_is_seen_by_every_reader(monkeypatch):
    """``type`` sits in the tail: every reader of a document's field
    finds it there."""
    seen = []

    class Tracer:
        def report_events(self, layer, kind, events):
            seen.extend(detail["doc_type"] for _, detail in events)

    monkeypatch.setattr(hooks, "tracer", Tracer())
    pipe = LogstashPipeline()
    collapse = AggregateTestFilter()
    pipe.add_filter(collapse)
    pipe.add_filter(make_type_filter(["throughput"]))
    pipe.add_filter(opensearch_metadata_filter)
    store = OpenSearchStore()
    pipe.add_output(OpenSearchOutputPlugin(store, index_prefix="ps"))
    row = document_run({"intervals": [{"throughput_bps": 10.0},
                                      {"throughput_bps": 30.0}]})
    tail = (("type",), ("throughput",))
    assert row.column("type", tail=tail) == ["throughput"]
    assert row.column("type", "none") == ["none"]
    out = pipe.process(Block([row], tail))
    assert collapse.collapsed_by_type == {"throughput": 1}
    assert out.documents() == [{"value": 20.0, "type": "throughput", "@version": "1",
                                "host": "p4-controlplane", "tags": ("p4-perfsonar",)}]
    assert seen == ["throughput"]
    assert [d["value"] for d in store.search("ps-throughput")] == [20.0]
    assert make_type_filter(["other"])(Block([row], tail)) == []


def test_the_metadata_filter_sets_the_tail_once_and_leaves_the_rows():
    rows = [document_run({"type": "p4_rtt", "value": 1.0}),
            document_run({"type": "p4_jitter", "value": 2.0})]
    block = Block(rows, (ENVELOPE, (4, "cp")))
    out = opensearch_metadata_filter(block)
    assert out == rows and all(a is b for a, b in zip(out, rows))
    assert out.tail == (ENVELOPE + ("@version", "host", "tags"),
                        (4, "cp", "1", "p4-controlplane", ("p4-perfsonar",)))
    assert block.tail == (ENVELOPE, (4, "cp")), "the input block is not touched"
    # A row that already carries a metadata field takes the merge, the
    # tail folded into every row first.
    tagged = Block(rows + [document_run({"type": "x", "tags": ["site"]})], block.tail)
    merged = opensearch_metadata_filter(tagged)
    assert merged.tail == ((), ())
    assert merged.documents() == [
        {**doc, "@version": "1", "host": "p4-controlplane", "tags": ("p4-perfsonar",)}
        for doc in Block(rows, block.tail).documents()] + [
        {"type": "x", "tags": ("site", "p4-perfsonar"), "_seq": 4, "_shipper": "cp",
         "@version": "1", "host": "p4-controlplane"}]


def test_a_duplicated_block_is_still_dropped_whole():
    sim = Simulator()
    install(FaultInjector(FaultSchedule(seed=1, windows=[
        FaultWindow("report_duplicate", 0.0, 10.0, probability=1.0)]),
        clock=lambda: sim.now))
    try:
        archiver = Archiver()
        shipper = ResilientShipper(sim, FaultyTransport(archiver.sink))
        for n in range(3):
            shipper(Block([document_run({"type": "p4_rtt", "value": float(n)}),
                           document_run({"type": "p4_jitter", "value": 0.0})]))
    finally:
        uninstall()
    assert shipper.transport.duplicated == 3
    assert archiver.output.documents_written == 6
    assert archiver.output.duplicates_dropped == 6
    assert archiver.dedup.duplicates == 3
    assert [d["_seq"] for d in archiver.documents("p4_rtt")] == [1, 2, 3]


def test_delete_takes_a_prefix_and_any_other_set_alike():
    def filled():
        store = OpenSearchStore()
        for t in range(10):
            store.bulk(["i"], Block([document_run({"@timestamp": float(t)})],
                                    (("k",), (t % 3,))))
        return store

    for doomed in (["1", "2", "3"], ["2", "5", "9"], ["1", "77"], [], ["10", "1"]):
        store = filled()
        left = [d for d in store.search("i") if d["_id"] not in doomed]
        assert store.delete("i", doomed) == 10 - len(left)
        assert store.search("i") == left
        assert store.columns("i", ("k",), before=99.0) == [[d["k"] for d in left]]
    assert OpenSearchStore().delete("missing", ["1"]) == 0
