"""Per-packet provenance: trace-id inheritance, windowed capture,
event triggers, Perfetto export and same-seed determinism.

Components bind the tracer at construction (same contract as the
metrics registry), so every test enables provenance *before* building
monitors or scenarios; the autouse fixture guarantees teardown.
"""

import json

import pytest

from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver
from repro.telemetry import provenance
from repro.telemetry.provenance import FrozenWindow, ProvenanceTracer, TraceEvent
from repro.telemetry.traceviz import (
    events_from_perfetto,
    render_timeline,
    to_perfetto,
    write_perfetto,
)
from repro.validation.fuzz import run_seed
from repro.validation.scenarios import BurstSpec, FlowSpec, ScenarioSpec

from tests.core.helpers import FT, FlowScript, small_monitor

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(autouse=True)
def _provenance_off_after():
    yield
    provenance.disable()


# -- trace-id identity and TAP inheritance ------------------------------------


def test_trace_ids_are_dense_and_first_seen_ordered():
    tr = ProvenanceTracer()
    a = make_data_packet(FT, seq=1, payload_len=100)
    b = make_data_packet(FT, seq=101, payload_len=100)
    assert tr.trace_id(a) == 1
    assert tr.trace_id(b) == 2
    assert tr.trace_id(a) == 1  # stable on re-sight


def test_mirror_copies_inherit_the_original_packets_trace_id():
    tr = ProvenanceTracer()
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    ingress = MirrorCopy(pkt, TapDirection.INGRESS, 1_000)
    egress = MirrorCopy(pkt, TapDirection.EGRESS, 2_000, egress_port_id=1)
    tid = tr.trace_id(pkt)
    assert tr.trace_id(ingress.pkt) == tid
    assert tr.trace_id(egress.pkt) == tid


def test_both_tap_traversals_land_under_one_trace_id():
    provenance.enable()
    mon = small_monitor()
    script = FlowScript(mon)
    pkt = script.transit(1, 100, 1_000, 50_000)  # ingress + egress copies
    tr = provenance.tracer()
    tid = tr.trace_id(pkt)
    evs = tr.events_for(tid)
    # Two pipeline traversals of the same packet: parser accepted twice,
    # every event under the single inherited id.
    assert sum(1 for ev in evs if ev.kind == "parser-accept") == 2
    assert {ev.trace_id for ev in evs} == {tid}
    # A different packet gets the next dense id.
    other = script.data(201, 100, 60_000)
    assert tr.trace_id(other) == tid + 1


def test_flow_filter_keeps_forward_and_reverse_only():
    tr = ProvenanceTracer(flow=FT, coarse_window=0)
    fwd = make_data_packet(FT, seq=1, payload_len=100)
    rev = make_ack_packet(FT.reversed(), ack=101)
    other = make_data_packet(
        FiveTuple(0x0B00000B, 0x0B01000B, 40001, 5202), seq=1, payload_len=100)
    tr.packet_event("netsim", "enqueue", "core:0", fwd, 1_000)
    tr.packet_event("netsim", "enqueue", "core:0", rev, 2_000)
    tr.packet_event("netsim", "enqueue", "core:0", other, 3_000)
    tids = {ev.trace_id for ev in tr.events()}
    assert tids == {tr.trace_id(fwd), tr.trace_id(rev)}
    assert tr.trace_id(other) not in tids


# -- ring eviction and frozen windows -----------------------------------------


def _burst(tr, pkt, n, t0=0):
    for i in range(n):
        tr.packet_event("netsim", "enqueue", "core:0", pkt, t0 + i,
                        queue_pkts=i)


def test_fine_ring_evicts_oldest_events():
    tr = ProvenanceTracer(coarse_window=0, fine_window=4)
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    _burst(tr, pkt, 6)
    evs = tr.events()
    assert len(evs) == 4
    assert [ev.t_ns for ev in evs] == [2, 3, 4, 5]  # oldest two evicted
    assert tr.events_recorded == 6  # the counter sees everything


def test_fire_freezes_fine_window_immutably():
    tr = ProvenanceTracer(coarse_window=0, fine_window=4)
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    _burst(tr, pkt, 6)
    dump = tr.fire("microburst", 10, port_id=0)
    assert dump is not None and dump is tr.dumps[0]
    assert dump.reason == "microburst"
    assert [ev.t_ns for ev in dump.events] == [2, 3, 4, 5]
    assert dump.detail == {"port_id": 0}
    # The live ring keeps rolling; the frozen snapshot does not.
    _burst(tr, pkt, 4, t0=100)
    assert [ev.t_ns for ev in tr.dumps[0].events] == [2, 3, 4, 5]


def test_unarmed_triggers_record_but_do_not_dump():
    tr = ProvenanceTracer(triggers=("alert",))
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    _burst(tr, pkt, 2)
    assert tr.fire("microburst", 5) is None
    assert tr.dumps == []
    assert tr.fires == [("microburst", 5)]


def test_dump_count_is_bounded_by_max_dumps():
    tr = ProvenanceTracer(max_dumps=2)
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    _burst(tr, pkt, 3)
    for t in (10, 20, 30):
        tr.fire("alert", t)
    assert len(tr.dumps) == 2
    assert len(tr.fires) == 3


# -- cross-layer linkage -------------------------------------------------------


def test_register_write_links_to_control_read_and_report():
    tr = ProvenanceTracer()
    pkt = make_data_packet(FT, seq=1, payload_len=100)
    tr.begin_packet(pkt, 1_000)
    tr.register_write("flow_bytes", 7, 0, 140)
    tr.end_packet()
    tid = tr.trace_id(pkt)
    # The extraction that reads the slot resolves to the writing packet...
    assert tr.control_read("flow_bytes", 7, 2_000, value=140) == tid
    # ...and the report shipped from that extraction inherits the id.
    assert tr.report_id() == tid
    tr.begin_report(2_500, [tid, 0])
    tr.report_events("archiver", "archive", [("repro", {"doc_type": "throughput"}),
                                             ("repro", {"doc_type": "rtt"})])
    # A layer that sees another count of documents records none.
    tr.report_events("archiver", "logstash-ship", [("repro", {"doc_type": "throughput"})])
    tr.end_report()
    assert {"register", "control-plane", "archiver"} <= tr.layers_for(tid)
    assert [(ev.kind, ev.detail) for ev in tr.events() if ev.layer == "archiver"] == [
        ("archive", {"doc_type": "throughput"})]
    # A cell nothing traced wrote resolves to no packet.
    assert tr.control_read("flow_bytes", 99, 3_000) == 0


# -- event-triggered capture, end to end --------------------------------------


def test_microburst_digest_freezes_the_fine_window():
    provenance.enable()
    sim = Simulator()
    mon = small_monitor()
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    cp.start()
    script = FlowScript(mon)

    def play():
        t = sim.now
        # 6 ms of queue delay (> the 5 ms on-threshold), then the burst
        # drains: the falling edge emits the microburst digest.
        script.transit(1, 100, t, t + millis(6))
        script.transit(101, 100, t + millis(7), t + millis(8))

    sim.at(seconds(0.2), play)
    sim.run_until(seconds(0.5))
    assert len(cp.microbursts) == 1

    tr = provenance.tracer()
    assert any(reason == "microburst" for reason, _t in tr.fires)
    dump = next(d for d in tr.dumps if d.reason == "microburst")
    assert dump.detail["peak_queue_delay_ns"] >= millis(5)
    # The frozen window preserved the packets behind the burst.
    tids = {ev.trace_id for ev in dump.events}
    assert tids
    assert any(ev.layer == "p4" for ev in dump.events)


def test_validation_mismatch_freezes_the_fine_window():
    # Arm only the oracle trigger so ambient microbursts in the seeded
    # scenario cannot exhaust max_dumps before the checker runs.
    provenance.enable(triggers=("oracle-mismatch",))

    def mutate(run):
        stage = run.scenario.monitor.rtt_loss
        orig = stage.pkt_loss.add
        stage.pkt_loss.add = lambda idx, v: orig(idx, v + 1)

    report = run_seed(0, run_hook=mutate)
    assert not report.passed

    tr = provenance.tracer()
    dump = next(d for d in tr.dumps if d.reason == "oracle-mismatch")
    assert dump.detail["seed"] == 0
    assert dump.detail["failures"]
    assert dump.events  # the packets behind the bad measurement survive


# -- Perfetto export -----------------------------------------------------------


def _sample_events():
    return [
        TraceEvent(0, 1, 1_000, "netsim", "enqueue", "core:0",
                   {"queue_pkts": 3, "queued_bytes": 4242}),
        TraceEvent(1, 1, 2_000, "register", "write", "rtt[5]",
                   {"old": 0, "new": 7}),
        TraceEvent(2, 2, 1_500, "archiver", "archive", "repro", {}),
    ]


def test_perfetto_round_trip_is_exact():
    evts = _sample_events()
    doc = to_perfetto(
        evts,
        spans=[{"path": "cp/tick", "t0_ns": 100, "dur_ns": 50, "wall_ns": 9}],
        dumps=[FrozenWindow("alert", 2_500, tuple(evts[:1]), {"metric": "rtt"})],
    )
    # Exact reconstruction, including through JSON serialisation.
    assert events_from_perfetto(doc) == evts
    assert events_from_perfetto(json.loads(json.dumps(doc))) == evts
    # Layers export as named processes; spans and triggers ride along.
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert {"layer:netsim", "layer:register", "layer:archiver",
            "layer:spans", "triggers"} <= names
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert {"envelope", "span", "trigger"} <= cats


def test_write_perfetto_emits_loadable_json(tmp_path):
    provenance.enable()
    mon = small_monitor()
    script = FlowScript(mon)
    script.transit(1, 100, 1_000, 50_000)
    path = tmp_path / "trace.json"
    doc = write_perfetto(str(path), provenance.tracer())
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(doc))
    assert on_disk["displayTimeUnit"] == "ns"
    assert events_from_perfetto(on_disk) == provenance.tracer().events()


def test_render_timeline_groups_by_packet():
    text = render_timeline(_sample_events())
    assert "packet trace 1" in text and "packet trace 2" in text
    assert "write:rtt[5]" in text and "new=7" in text
    assert render_timeline([]) == "(no trace events recorded)"


# -- determinism ---------------------------------------------------------------


def _tiny_spec():
    return ScenarioSpec(
        seed=0,
        duration_s=3.0,
        flows=[FlowSpec(dst_index=0, start_s=0.0, duration_s=2.0)],
        bursts=[BurstSpec(at_s=1.0, nbytes=40_000, dst_index=0)],
    )


def _run_traced_once():
    provenance.enable(sample_rate=1.0 / 8.0, fine_window=2048)
    try:
        run = _tiny_spec().build()
        run.run()
        tr = provenance.tracer()
        return tuple(tr.events()), tuple(tr.fires)
    finally:
        provenance.disable()


def test_same_seed_runs_produce_identical_traces():
    events_a, fires_a = _run_traced_once()
    events_b, fires_b = _run_traced_once()
    assert events_a  # the scenario actually traced something
    assert events_a == events_b
    assert fires_a == fires_b
