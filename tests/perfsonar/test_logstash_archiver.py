"""Logstash pipeline (Fig. 7) and the assembled archiver.  Every stage
takes a block of runs; a block's documents are its runs' with its tail
appended."""

import json

import pytest

from repro.core.reports import Block, FlowSample, Run, document_run
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.logstash import (
    AggregateTestFilter,
    LogstashPipeline,
    OpenSearchOutputPlugin,
    TcpInputPlugin,
    make_type_filter,
    opensearch_metadata_filter,
)
from repro.perfsonar.opensearch import OpenSearchStore


def _block(*docs, tail=((), ())):
    return Block([document_run(doc) for doc in docs], tail)


def _docs(block):
    return block.documents()


def test_pipeline_filter_order_and_outputs():
    pipe = LogstashPipeline()
    seen = []
    pipe.add_filter(lambda block: Block([Run(r.keys + ("a",), r.values + (1,))
                                         for r in block]))
    pipe.add_filter(lambda block: Block([Run(r.keys + ("b",), r.values + (r.column("a")[0] + 1,))
                                         for r in block]))
    pipe.add_output(seen.append)
    out = pipe.process(_block({"type": "x"}))
    assert _docs(out) == [{"type": "x", "a": 1, "b": 2}]
    assert seen == [out]
    assert pipe.events_in == pipe.events_out == 1


def test_pipeline_drop_via_none():
    pipe = LogstashPipeline()
    pipe.add_filter(make_type_filter(["keep"]))
    outputs = []
    pipe.add_output(outputs.append)
    assert pipe.process(_block({"type": "drop-me"})) == []
    assert pipe.process(_block({"type": "keep"}))
    out = pipe.process(_block({"type": "keep", "n": 1}, {"type": "drop-me"},
                              {"type": "keep", "n": 2}))
    assert _docs(out) == [{"type": "keep", "n": 1}, {"type": "keep", "n": 2}]
    assert pipe.events_dropped == 2
    assert len(outputs) == 2 and pipe.events_out == 3


def test_metadata_filter_adds_v2_fields():
    out, = _docs(opensearch_metadata_filter(_block({"type": "p4_rtt", "value": 1.0})))
    assert out["@version"] == "1"
    assert "p4-perfsonar" in out["tags"]


def test_metadata_filter_does_not_alias_the_callers_tags():
    """A shipper offers the same event again on a retry (filters have
    already run once by then): the marker must land in a new list, not
    be appended to the caller's."""
    event = {"type": "p4_rtt", "value": 1.0, "tags": ["site-a"]}
    block = _block(event)
    archiver = Archiver()
    archiver.sink(block)
    archiver.sink(block)
    assert event == {"type": "p4_rtt", "value": 1.0, "tags": ["site-a"]}
    assert block == _block(event)
    first, second = archiver.documents("p4_rtt")
    assert first["tags"] == second["tags"] == ["site-a", "p4-perfsonar"]
    assert {k: v for k, v in first.items() if k != "_id"} \
        == {k: v for k, v in second.items() if k != "_id"}


def test_pipeline_hands_filters_the_event_itself():
    """The FilterFn contract: no defensive copy on the way in, so a
    pass-through chain ships the caller's own runs."""
    pipe = LogstashPipeline()
    pipe.add_filter(make_type_filter(["x"]))
    shipped = []
    pipe.add_output(shipped.append)
    row = document_run({"type": "x"})
    assert pipe.process(Block([row]))[0] is row and shipped[0][0] is row


def test_tcp_input_feeds_pipeline():
    pipe = LogstashPipeline()
    got = []
    pipe.add_output(got.append)
    tcp = TcpInputPlugin(pipe)
    tcp.ingest(_block({"type": "x"}))
    tcp(_block({"type": "y"}, {"type": "z"}))  # callable form
    assert tcp.messages == 3
    assert len(got) == 2


def test_output_plugin_routes_by_type():
    store = OpenSearchStore()
    out = OpenSearchOutputPlugin(store, index_prefix="ps")
    out(_block({"type": "p4_rtt", "value": 1}, {"type": "p4_throughput", "value": 2},
               {"type": "p4_rtt", "value": 3}))
    assert store.count("ps-p4_rtt") == 2
    assert store.count("ps-p4_throughput") == 1
    assert out.documents_written == 3
    # _ids follow row order across indices.
    assert [d["_id"] for d in store.search("ps-p4_rtt")] == ["1", "3"]


def test_aggregate_filter_collapses_throughput():
    f = AggregateTestFilter()
    event = {
        "type": "throughput",
        "intervals": [{"throughput_bps": 10.0}, {"throughput_bps": 30.0}],
    }
    out, = _docs(f(_block(event)))
    assert out["value"] == 20.0
    assert "intervals" not in out
    assert f.collapsed == 1


def test_aggregate_filter_collapses_rtt():
    f = AggregateTestFilter()
    out, = _docs(f(_block({"type": "rtt", "samples_ms": [1.0, 5.0, 3.0]})))
    assert out["min_ms"] == 1.0
    assert out["max_ms"] == 5.0
    assert out["mean_ms"] == 3.0
    assert "samples_ms" not in out


def test_aggregate_filter_passthrough_other_types():
    f = AggregateTestFilter()
    block = _block({"type": "p4_throughput", "value": 5})
    assert f(block) == block
    assert f.collapsed == 0


def test_archiver_end_to_end_report_v1_to_v2():
    archiver = Archiver()
    sample = FlowSample(time_ns=2_000_000_000, metric="throughput",
                        flow_id=9, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                        value=1e6)
    archiver.sink(Block([sample.run()]))
    docs = archiver.documents("p4_throughput")
    assert len(docs) == 1
    doc = docs[0]
    # Report_v2: the original fields + OpenSearch metadata.
    assert doc["value"] == 1e6
    assert doc["@version"] == "1"
    assert doc["_index"] == "pscheduler-p4_throughput"


def test_archiver_series_and_flow_ids():
    archiver = Archiver()
    for t, fid in ((1, 5), (2, 5), (3, 6)):
        archiver.sink(_block({"type": "p4_rtt", "@timestamp": float(t),
                              "flow_id": fid, "value": t * 1.0}))
    assert archiver.series("p4_rtt", flow_id=5) == [(1.0, 1.0), (2.0, 2.0)]
    assert archiver.count("p4_rtt") == 3


# -- malformed-input hardening (repro_logstash_malformed_total) ----------------


def test_ingest_line_parses_valid_json():
    pipe = LogstashPipeline()
    got = []
    pipe.add_output(got.append)
    tcp = TcpInputPlugin(pipe)
    assert tcp.ingest_line('{"type": "p4_rtt", "value": 3.0}') is not None
    assert _docs(got[0]) == [{"type": "p4_rtt", "value": 3.0}]
    assert tcp.malformed == 0
    assert tcp.messages == 1


@pytest.mark.parametrize("line", [
    '{"type": "p4_rtt", "value"',      # truncated mid-key
    "",                                 # empty line
    "not json at all",                  # garbage
    b"\xff\xfe\x00binary",             # undecodable bytes
    "[1, 2, 3]",                        # JSON, but not an object
    '"just a string"',
])
def test_ingest_line_drops_malformed_without_raising(line):
    pipe = LogstashPipeline()
    got = []
    pipe.add_output(got.append)
    tcp = TcpInputPlugin(pipe)
    assert tcp.ingest_line(line) is None
    assert tcp.malformed == 1
    assert tcp.messages == 0
    assert got == []


def test_ingest_rejects_non_dict_events():
    tcp = TcpInputPlugin(LogstashPipeline())
    assert tcp.ingest_line(json.dumps(["a", "list"])) is None
    assert tcp.ingest_line("null") is None
    assert tcp.malformed == 2 and tcp.messages == 0


def test_malformed_counter_exported_per_pipeline():
    from repro import telemetry

    telemetry.enable()
    telemetry.reset()
    try:
        tcp = TcpInputPlugin(LogstashPipeline("edge"))
        tcp.ingest_line("garbage")
        snap = telemetry.snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        series = by_name["repro_logstash_malformed_total"]["series"]
        assert series[0]["labels"] == {"pipeline": "edge"}
        assert series[0]["value"] == 1
    finally:
        telemetry.disable()
        telemetry.reset()


# -- archiver-side sequence dedup ----------------------------------------------


def _report(kind="p4_rtt"):
    return {"type": kind, "@timestamp": 1.0, "value": 2.0}


def _enveloped(seq, *kinds):
    """A shipped block: its reports, and its envelope in its tail."""
    return _block(*map(_report, kinds or ("p4_rtt",)),
                  tail=(("_seq", "_shipper"), (seq, "p4-controlplane")))


def test_output_plugin_dedups_redelivered_sequences():
    from repro.perfsonar.logstash import SequenceDedup

    store = OpenSearchStore()
    out = OpenSearchOutputPlugin(store, dedup=SequenceDedup())
    out(_enveloped(1))
    out(_enveloped(2))
    out(_enveloped(1))  # at-least-once redelivery
    # Two rows in one block: they share one envelope, and are all kept...
    out(_enveloped(3, "p4_rtt", "p4_throughput"))
    # ...and the block redelivered is dropped whole, on one probe.
    out(_enveloped(3, "p4_rtt", "p4_throughput"))
    assert store.count("pscheduler-p4_rtt") == 3
    assert store.count("pscheduler-p4_throughput") == 1
    assert out.documents_written == 4
    assert out.duplicates_dropped == 3
    assert out.dedup.duplicates == 2


def test_output_plugin_without_envelope_is_unaffected():
    from repro.perfsonar.logstash import SequenceDedup

    store = OpenSearchStore()
    out = OpenSearchOutputPlugin(store, dedup=SequenceDedup())
    out(_block({"type": "p4_rtt", "value": 1.0}))
    out(_block({"type": "p4_rtt", "value": 1.0}))
    assert store.count("pscheduler-p4_rtt") == 2, \
        "un-enveloped documents are never deduped"


def test_dedup_records_only_after_successful_write():
    """A write that dies mid-flight must stay unrecorded, or the retry
    would be mistaken for a duplicate and the report lost forever."""
    from repro.perfsonar.logstash import SequenceDedup

    store = OpenSearchStore()
    out = OpenSearchOutputPlugin(store, dedup=SequenceDedup())
    original_bulk = store.bulk
    calls = {"n": 0}

    def flaky_bulk(indices, block):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("mid-write crash")
        return original_bulk(indices, block)

    store.bulk = flaky_bulk
    with pytest.raises(RuntimeError):
        out(_enveloped(1))
    out(_enveloped(1))  # the redelivery
    assert store.count("pscheduler-p4_rtt") == 1
    assert out.duplicates_dropped == 0


def test_archiver_wires_dedup_end_to_end():
    arch = Archiver()
    arch.sink(_enveloped(5))
    arch.sink(_enveloped(5))
    assert arch.count("p4_rtt") == 1
    assert arch.output.duplicates_dropped == 1
    assert arch.dedup.seen_count("p4-controlplane") == 1
