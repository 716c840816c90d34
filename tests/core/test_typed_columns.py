"""A tick's numbers travel typed — 8-byte ``array`` columns and identity
selections — from the register sweep into the archive, and leave typed
form at every boundary: whatever the store hands out, a ``ReportView``
record, a checkpoint and a block delivered from the shipper's spool
holds plain Python values, never a numpy scalar or an ``array``."""

import json
from array import array
from enum import Enum

from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import Selection
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver
from repro.resilience.checkpoint import capture_checkpoint
from repro.resilience.delivery import ResilientShipper
from repro.resilience.faults import DeliveryError

from tests.core.helpers import FlowScript, small_monitor

PLAIN = (type(None), bool, int, float, str)


def assert_plain(value, where, containers=(list, dict)):
    kind = type(value)
    if kind in containers and kind is dict:
        for key, item in value.items():
            assert type(key) is str, (where, key)
            assert_plain(item, where, containers)
    elif kind in containers:
        for item in value:
            assert_plain(item, where, containers)
    else:
        assert kind in PLAIN, (where, kind, value)


def _run():
    """Two flows through a control plane that ships through a shipper
    whose archive refuses every block until 1.5 s: one flow is ACKed
    (RTT, jitter), the other never is, so its RTT samples are missing
    and the tick's RTT runs are compressed to the first flow."""
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    archiver, spooled, down = Archiver(), [], [True]

    def transport(block):
        if down[0]:
            raise DeliveryError("archive down")
        if sim.now > seconds(1.5) and not spooled:
            spooled.append(block)
        archiver.sink(block)

    shipper = ResilientShipper(sim, transport)
    cp = MonitorControlPlane(sim, mon, report_sink=shipper)
    cp.start()
    acked = FlowScript(mon)
    silent = FlowScript(mon, FiveTuple(0x0A00000B, 0x0A01000A, 40001, 5201))
    seq = 1
    for i in range(300):
        t = seconds(0.1) + i * millis(10)
        sim.at(t, acked.data, seq, 1000, t)
        sim.at(t + millis(3 + i % 7), acked.ack, seq + 1000, t + millis(3 + i % 7))
        sim.at(t + 1, silent.data, seq, 1000, t + 1)
        seq += 1000
    sim.run_until(seconds(1.5))
    assert shipper.pending > 0
    state = shipper.checkpoint_state()
    sim.at(seconds(1.5) + 1, lambda: down.__setitem__(0, False))
    sim.run_until(seconds(3.2))
    return cp, archiver, state, spooled


def test_numbers_are_typed_in_the_archive_and_plain_everywhere_they_leave_it():
    cp, archiver, shipper_state, spooled = _run()
    store = archiver.store

    # Inside: numeric columns are arrays, a compressed run's identity a
    # selection (what makes the typed path the one exercised here).
    kinds = {type(value) for docs in store._indices.values() for seg in docs.segments
             for p, value in enumerate(seg.run.values) if p in seg.run.cols}
    assert array in kinds and Selection in kinds

    # The store's reads.
    for index in store.indices:
        docs = store.search(index)
        assert docs
        for doc in docs:
            assert_plain(doc, index)
        assert_plain(store.columns(index, tuple(docs[0])), index)
        assert_plain(store.tail(index, 0.0), index)
        assert_plain(store.get(index, docs[-1]["_id"]), index)

    # Records rebuilt from the archive's columns.
    views = [*cp.flow_samples.values(), cp.jitter_samples, cp.limiter_reports,
             cp.aggregate_samples]
    assert all(len(view) for view in views)
    for view in views:
        for record in view:
            for name, value in vars(record).items():
                if not isinstance(value, Enum):
                    assert_plain(value, (view.type, name))

    # Checkpoints: the control plane's (its flows' state included) and
    # the shipper's spool, as JSON writes them.
    doc = capture_checkpoint(cp)
    assert_plain(doc, "checkpoint")
    assert json.loads(json.dumps(doc)) == doc
    assert shipper_state["spool"]
    assert_plain(shipper_state, "shipper checkpoint", containers=(list, tuple, dict))

    # A block the shipper delivered from its spool, as documents.
    assert spooled
    for document in spooled[0].documents():
        assert_plain(document, "spooled block", containers=(list, tuple, dict))


def test_a_scattered_delete_keeps_a_tick_run_typed_and_its_positions_shared():
    """A delete of documents scattered through a tick's segment rebuilds
    it by ``Run.select``, the one compaction rule: the five identity
    columns stay selections sharing one positions array, the numbers
    stay typed, and the documents left are the others, unchanged."""
    sim = Simulator()
    mon = small_monitor(flow_slots=64)
    archiver = Archiver()
    cp = MonitorControlPlane(sim, mon, report_sink=archiver.sink)
    for fid in range(1, 9):
        cp._on_long_flow("long_flow", dict(
            flow_id=fid, rev_flow_id=fid + 32, slot=fid, rev_slot=fid + 32,
            src_ip=0x0A000000 + fid, dst_ip=0x0A010000, src_port=40000 + fid,
            dst_port=5201, first_seen_ns=0))
        mon.program.registers["flow_bytes"].write(fid, 1000 * fid)
    cp.schedule["throughput"].body()
    store, index = archiver.store, "pscheduler-p4_throughput"
    before = store.search(index)
    assert len(before) == 8

    def columns():
        (segment,) = store._indices[index].segments
        run = segment.run
        return run, [run.values[p] for p in (2, 3, 4, 5, 6)], run.values[run.at("value")]

    run, identity, value = columns()
    assert all(type(column) is Selection for column in identity)
    assert len({id(column.at) for column in identity}) == 1

    gone = [before[i]["_id"] for i in (1, 4, 6)]
    assert store.delete(index, gone) == 3
    run, identity, value = columns()
    assert run.n == 5
    assert all(type(column) is Selection for column in identity)
    assert len({id(column.at) for column in identity}) == 1
    assert type(value) is array and value.typecode == "d"
    assert store.search(index) == [doc for doc in before if doc["_id"] not in gone]
