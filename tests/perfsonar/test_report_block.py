"""A tick ships one block: every Report_v1 document an extraction tick
produces crosses Logstash into the archive in one list of runs, and the
archive holds byte for byte what it held when each document travelled
alone.

The literals below were captured from the per-document report path this
one replaced, on the same scripted scenario.  Since a tick's streams
travel as runs, each run's documents take consecutive ``_id``s, so a
digest over ``_id`` was re-pinned beside one without it, which keeps
the per-document path's value.  A bound provenance tracer ships the
same blocks: it observes the run a dark control plane makes."""

import hashlib
import json

import pytest

from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import Block, ForensicsReport, document_run
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, TCPFlags
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.opensearch import OpenSearchStore
from repro.telemetry import provenance
from repro.telemetry.traceviz import to_perfetto

from tests.core.helpers import FT, FlowScript, documents_sha256, small_monitor

OTHER = FiveTuple(0x0A00000B, 0x0A01000B, 40001, 5201)


def _stream(sim, script, start_s, stop_s, rate_bytes_per_s, seq=1, seg=1000):
    """Data crossing the tapped switch (200 us queueing) and its ACK 5 ms
    later; returns the next sequence number."""
    gap = int(seg / rate_bytes_per_s * 1e9)
    t = seconds(start_s)
    while t < seconds(stop_s):
        sim.at(t, script.transit, seq, seg, t, t + 200_000)
        sim.at(t + millis(5), script.ack, seq + seg, t + millis(5))
        seq += seg
        t += gap
    return seq


def run_scenario(ship=None):
    """All six schedule jobs at 10 ticks/s (histograms and forensics on)
    over two scripted flows: flow A crosses the throughput alert
    threshold and falls back under it (raised, then cleared), then ends
    with a FIN (one termination report); flow B carries a 6 ms queue
    excursion (one microburst, then its forensics query).  Returns the
    control plane, the archiver, every block the sink received and, per
    tick, how many sink calls it made.  ``ship(sim, sink)``, when given,
    returns the report sink to put in front of that one (a shipper)."""
    sim = Simulator()
    mon = small_monitor(histograms_enabled=True, forensics_enabled=True)
    for kind in MetricKind:
        mon.config.metric(kind).samples_per_second = 10.0
    thr = mon.config.metric(MetricKind.THROUGHPUT)
    thr.alert_enabled, thr.alert_threshold = True, 2_000_000.0
    thr.boosted_samples_per_second = 20.0
    archiver = Archiver()
    blocks = []

    def sink(block):
        blocks.append(block)
        archiver.sink(block)

    cp = MonitorControlPlane(sim, mon,
                             report_sink=sink if ship is None else ship(sim, sink))
    calls_per_tick = []
    real_tick = cp._tick

    def tick(job):
        before = len(blocks)
        real_tick(job)
        calls_per_tick.append(len(blocks) - before)

    cp._tick = tick
    cp.start()

    a, b = FlowScript(mon, FT), FlowScript(mon, OTHER)
    seq = _stream(sim, a, 0.1, 1.0, 500_000)            # ~4 Mb/s: alert
    seq = _stream(sim, a, 1.0, 1.6, 50_000, seq=seq)    # ~0.4 Mb/s: cleared
    sim.at(seconds(1.7), a.data, seq, 0, seconds(1.7), TCPFlags.FIN | TCPFlags.ACK)
    seq_b = _stream(sim, b, 0.1, 0.5, 100_000)
    t = seconds(0.5)
    sim.at(t, b.transit, seq_b, 1400, t, t + millis(6))
    sim.at(t + millis(7), b.transit, seq_b + 1400, 1400, t + millis(7), t + millis(8))
    _stream(sim, b, 0.6, 2.5, 100_000, seq=seq_b + 2800)
    sim.run_until(seconds(3))
    cp.stop()
    return cp, archiver, blocks, calls_per_tick


def archive_sha256(store) -> str:
    return hashlib.sha256(json.dumps(
        [store.search(index) for index in store.indices]).encode()).hexdigest()


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


@pytest.fixture(scope="module")
def traced():
    """The scenario with a tracer bound that records every event, and
    that tracer."""
    provenance.enable(sample_rate=1.0, coarse_window=10**6, fine_window=10**6)
    try:
        return (*run_scenario(), provenance.tracer())
    finally:
        provenance.disable()


def test_the_scenario_reaches_every_report_kind(scenario):
    cp, archiver, _, _ = scenario
    assert len(cp.schedule) == 6
    assert {a.cleared for a in cp.alerts.history} == {False, True}
    assert len(cp.terminations) == 1 and len(cp.microbursts) == 1
    assert cp.histogram_reports and cp.forensics_reports
    assert len(archiver.store.indices) == 12


def test_every_archived_byte_is_the_per_document_paths(scenario):
    _, archiver, _, _ = scenario
    # With ``_id``s: a6d0193a... while every row took the next ``_id``.
    assert archive_sha256(archiver.store) == (
        "f35e0c3acb70bb9a3af17390cda86b650a3164511c4b7bd1f9916cb63f2f2529")
    assert documents_sha256(archiver.store) == (
        "1a24b8eef072053452f5db518dce76a29d9e92fff564076e2cdc60391f82d714")
    assert archiver.pipeline.events_in == 332
    assert archiver.output.documents_written == 332
    assert archiver.tcp_input.messages == 332


@pytest.mark.parametrize("run", ["scenario", "traced"], ids=["dark", "traced"])
def test_a_tick_that_ships_anything_calls_the_sink_once(request, run):
    cp, _, blocks, calls_per_tick = request.getfixturevalue(run)[:4]
    # 134 ticks, 129 of which shipped anything (five shipped nothing).
    assert len(calls_per_tick) == 134
    assert set(calls_per_tick) == {0, 1}
    assert sum(calls_per_tick) == 129
    # The rest are the digest handlers' reports, a run of one each.
    digest_blocks = len(blocks) - sum(calls_per_tick)
    assert digest_blocks == len(cp.terminations) + len(cp.microbursts)
    assert sorted(b.size for b in blocks)[:digest_blocks] == [1] * digest_blocks
    # Mixed schemas in one list, in emission order; a stream is one run.
    assert max(len({run.keys for run in block}) for block in blocks) >= 3
    assert max(run.n for block in blocks for run in block) >= 2


def test_a_traced_run_archives_what_a_dark_one_does(scenario, traced):
    """A bound tracer ships the dark run's blocks: 131 sink calls, not
    the 332 it made while each document travelled alone, and the
    archive, ``_id``s included, hashes to the dark pin (a6d0193a...
    while it shipped runs of one)."""
    _, dark, dark_blocks, _ = scenario
    _, archiver, blocks, _, _ = traced
    assert len(blocks) == len(dark_blocks) == 131
    assert blocks == dark_blocks
    assert archive_sha256(archiver.store) == archive_sha256(dark.store) == (
        "f35e0c3acb70bb9a3af17390cda86b650a3164511c4b7bd1f9916cb63f2f2529")


def test_search_hands_out_copies_of_the_archives_containers():
    """A list in a position the schema's first document held a scalar
    in, and culprit dicts inside a row's tuple, used to be returned by
    reference."""
    store = OpenSearchStore()
    store.index("i", {"a": 1, "b": 2})
    store.index("i", {"a": [1, 2], "b": 3})
    store.search("i")[1]["a"].append(3)
    assert store.search("i")[1]["a"] == [1, 2]

    archiver = Archiver()
    report = ForensicsReport(
        time_ns=seconds(1), trigger="query", t0_ns=0, t1_ns=1, level=0,
        window_width_ns=1_000_000, windows=3, total_bytes=4500,
        culprits=[{"flow_id": 7, "bytes": 4500}])
    archiver.sink(Block([report.run(), document_run({"type": "x", "labels": {"k": "v"}})]))
    archiver.forensics_documents()[0]["culprits"][0]["bytes"] = -1
    report.culprits[0]["bytes"] = -2
    archiver.documents("x")[0]["labels"]["k"] = "w"
    assert archiver.forensics_documents()[0]["culprits"] == [
        {"flow_id": 7, "bytes": 4500}]
    assert archiver.documents("x")[0]["labels"] == {"k": "v"}


# -- nothing downstream moved ---------------------------------------------------


def test_a_traced_runs_lineage_is_unchanged(traced):
    *_, tracer = traced
    events = tracer.events()
    # Every shipped report carries its packet through Logstash.
    assert sum(ev.kind == "logstash-ship" for ev in events) == 331
    # Each document names the packet it named when it travelled alone:
    # the events, ``seq`` aside, are the per-document path's.
    assert len(events) == 31_131
    assert hashlib.sha256("\n".join(sorted(
        json.dumps(ev[1:], sort_keys=True) for ev in events)).encode()).hexdigest() == (
        "996b5c6bfa23ebb4890a81d8ed91837445630c754f31f217ba1c9a26b4de9424")
    # A metric alert's window is frozen before its tick's block ships
    # (2,564 events while each document shipped as it came).
    assert [(d.reason, len(d.events)) for d in tracer.dumps] == [
        ("alert", 2_562), ("microburst", 10_395), ("alert", 22_789)]
    # Re-pinned when a tracer's reports began to ship as the tick's
    # block, which reorders their events (ffb7a295... before), and when
    # ``archive`` came to be recorded once the archive wrote the block,
    # after Logstash's ``logstash-ship`` (85625650... before); the
    # sorted events above are the same.
    doc = to_perfetto(events, spans=tracer.span_log, dumps=tracer.dumps)
    export = json.dumps(doc, separators=(",", ":")).encode()
    assert hashlib.sha256(export).hexdigest() == (
        "8329d9e24e9a2a33e495426dfa3c5d2e0502b8df887726797faac0b118540cac")


def test_a_fault_free_shipper_is_transparent(scenario):
    """A shipper in front of the archiver makes one transport call per
    block the control plane emits, adds one envelope per block (in its
    tail: the rows go as they came), and leaves the archive, envelope
    aside, as the direct sink leaves it."""
    from repro.resilience.delivery import ResilientShipper

    shippers = []

    def ship(sim, sink):
        shippers.append(ResilientShipper(sim, sink))
        return shippers[0]

    _, archiver, sent, _ = run_scenario(ship)
    _, direct, emitted, _ = scenario
    shipper, = shippers
    assert len(sent) == len(emitted) == shipper.seq == shipper.acked_total
    for seq, (block, rows) in enumerate(zip(sent, emitted), 1):
        assert block == rows
        assert block.tail == (("_seq", "_shipper"), (seq, "p4-controlplane"))
        assert {(doc["_seq"], doc["_shipper"]) for doc in block.documents()} == {
            (seq, "p4-controlplane")}

    def stripped(store):
        return [[{k: v for k, v in doc.items() if k not in ("_seq", "_shipper")}
                 for doc in store.search(index)] for index in store.indices]

    assert archiver.store.indices == direct.store.indices
    assert stripped(archiver.store) == stripped(direct.store)
    assert archiver.dedup.seen_count("p4-controlplane") == shipper.seq
    assert archiver.output.duplicates_dropped == 0


def test_a_bundled_chaos_schedule_keeps_its_verdict_and_digest():
    from repro.resilience.chaos import bundled_chaos, run_chaos

    result = run_chaos(bundled_chaos(seed=7)["lossy-transport"])
    assert result.passed
    # Pinned since the shipper delivers whole blocks: every row of a
    # block carries the block's one ``_seq``, and each block attempt
    # draws one transport fate, so fewer attempts fail and the breaker
    # never opens (the per-row shipper's pin was fab009d3...).  Re-pinned
    # when a tick's streams became runs, which renumbers ``_id``s only
    # (93a1d07f... before); the digest without them is unchanged.
    assert result.archive_digest == (
        "fffdc8f7efc3d9582cd0d9edc5e6f7afe95ff678a3592af5af9bf1e4cdf93f38")
    assert documents_sha256(result.run.scenario.archiver.store) == (
        "333fdec470b43ebf2ab78105b0eddf9095f3b681f7d646998f69e98950f7575c")
