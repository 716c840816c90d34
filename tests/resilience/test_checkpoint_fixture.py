"""``repro-checkpoint-v1`` compatibility pin for the control-plane sections.

``fixtures/checkpoint_v1_pr14.json`` was written by the commit *before*
the control plane's extraction schedule became one table (PR 15's
parent, e04c601): a tiny-geometry monitor with histograms and forensics
on, one all-metric ``cp_stall`` window (so every extractor holds one
deferred and one catch-up tick) and a microburst query still pending.
Later code must keep restoring it; regenerating it at a later commit
defeats its purpose.  ``python -m tests.resilience.test_checkpoint_fixture
PATH`` re-runs the recipe (the scripted world below) and writes PATH.
"""

import json
import os
import sys

import numpy as np
import pytest

from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.core.flow_table import slot_of
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.archiver import Archiver
from repro.resilience.checkpoint import (
    _decode_array,
    capture_checkpoint,
    content_digest,
    restore_control_plane,
    restore_dataplane,
)

from tests.core.helpers import FlowScript, small_monitor

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "checkpoint_v1_pr14.json")
MS = 1_000_000
KINDS = [k.value for k in MetricKind]


def fixture_monitor():
    """The fixture's data-plane geometry (a restore needs the same)."""
    return small_monitor(
        flow_slots=16, eack_table_size=32, queue_stash_size=32, cms_width=32,
        cms_depth=2, monitored_ports=2, histograms_enabled=True,
        rtt_hist_bins=8, qdepth_hist_bins=8, forensics_enabled=True,
        forensics_levels=2, forensics_cells=16)


def write_fixture(path):
    from repro.resilience.faults import FaultInjector, install, uninstall
    from repro.resilience.schedule import FaultSchedule, FaultWindow

    sim = Simulator()
    install(FaultInjector(
        FaultSchedule(seed=1, windows=[FaultWindow("cp_stall", 1.5, 1.0)]),
        clock=lambda: sim.now))
    try:
        monitor = fixture_monitor()
        cp = MonitorControlPlane(sim, monitor)
        cp.start()
        script = FlowScript(monitor)
        script.make_long()

        def segment(i, qdelay_ns):
            seq = 2000 + i * 1448
            script.transit(seq, 1448, sim.now, sim.now + qdelay_ns)
            script.ack(seq + 1448, sim.now + qdelay_ns + 2 * MS)

        for i in range(30):          # one segment / 100 ms, 0.2 ms queue
            sim.at(seconds(0.1 + 0.1 * i), segment, i, 200_000)
        # 6 ms then 1 ms of queueing delay against a 10 ms buffer: the
        # burst opens and closes after the t=3 s forensics tick, so its
        # culprit query is still pending at capture time.
        sim.at(seconds(3.15), segment, 30, 6 * MS)
        sim.at(seconds(3.20), segment, 31, 1 * MS)
        sim.run_until(seconds(3.3))
        cp.stop()
        doc = capture_checkpoint(cp, seq=7)
    finally:
        uninstall()
    doc["digest"] = content_digest(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _load():
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["digest"] == content_digest(doc), "fixture was edited"
    return doc


def test_fixture_holds_what_it_pins():
    doc = _load()
    assert os.path.getsize(FIXTURE) < 100_000
    sec = doc["control_plane"]
    assert sorted(sec["ticks_deferred"]) == sorted(KINDS)
    assert all(sec["ticks_deferred"][k] == 1 for k in KINDS)
    assert all(sec["catchup_ticks"][k] == 1 for k in KINDS)
    for name in ("histograms", "forensics"):
        assert doc[name]["ticks_deferred"] == 1
        assert doc[name]["catchup_ticks"] == 1
        assert doc[name]["ticks"] == 2
    assert [p[0] for p in doc["forensics"]["pending"]] == ["microburst"]
    assert sec["flows"] and sec["archives"]["histogram_reports"]


def test_parent_written_checkpoint_restores_and_round_trips():
    doc = _load()
    sim = Simulator()
    sim.run_until(doc["time_ns"])
    monitor = fixture_monitor()
    assert restore_dataplane(monitor.program, doc) == doc["dataplane_digest"]
    cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
    restore_control_plane(cp, doc)

    sec = doc["control_plane"]
    # The local report archives a v1 document carries are read for their
    # lengths (the restored tallies) and dropped.
    archives = sec["archives"]
    for kind in MetricKind:
        assert len(cp.flow_samples[kind]) == len(archives["flow_samples"][kind.value])
    for name in ("jitter_samples", "aggregate_samples", "microbursts", "terminations",
                 "limiter_reports", "histogram_reports", "forensics_reports"):
        assert len(getattr(cp, name)) == len(archives[name]), name
    assert cp.histogram_reports and not list(cp.histogram_reports)
    # Cursors stay parked until start(): the first post-restart tick
    # windows over the true elapsed time.
    for kind in KINDS:
        assert cp._resume_cursors[kind] == sec["cursors"][kind]
        assert cp.ticks_deferred[kind] == sec["ticks_deferred"][kind]
        assert cp.catchup_ticks[kind] == sec["catchup_ticks"][kind]
    for name, extractor in (("histograms", cp.histograms),
                            ("forensics", cp.forensics)):
        assert cp.ticks_deferred[name] == doc[name]["ticks_deferred"]
        assert cp.catchup_ticks[name] == doc[name]["catchup_ticks"]
        assert extractor.ticks == doc[name]["ticks"]
    hsec, fsec = doc["histograms"], doc["forensics"]
    assert np.array_equal(cp.histograms.rtt_cumulative,
                          _decode_array(hsec["rtt_cumulative"]))
    assert np.array_equal(cp.histograms.qdepth_cumulative,
                          _decode_array(hsec["qdepth_cumulative"]))
    assert cp.histograms.rtt_cumulative.sum() > 0
    assert cp.forensics.index == [
        {wid: entry for wid, entry in level} for level in fsec["index"]]
    assert any(cp.forensics.index)
    assert cp.forensics._pending == [tuple(p) for p in fsec["pending"]]

    cp.start()
    for kind in KINDS:
        assert cp.last_extraction_ns[kind] == sec["cursors"][kind]
    again = json.loads(json.dumps(capture_checkpoint(cp, seq=doc["seq"])))
    cp.stop()
    # Same sections, same keys per section but the control plane's
    # report archives, which became their tallies; job names under
    # control_plane.cursors may only be added.
    assert set(again) == set(doc) - {"digest"}
    for name, section in again.items():
        if isinstance(section, dict):
            renamed = {"archives": "tallies"} if name == "control_plane" else {}
            assert set(section) == {renamed.get(k, k) for k in doc[name]}, name
    cursors = again["control_plane"].pop("cursors")
    assert set(cursors) >= set(sec["cursors"])
    assert {k: cursors[k] for k in sec["cursors"]} == sec["cursors"]
    tallies = {t: n for t, n in cp.tallies.items() if n}
    assert sum(tallies.values()) == sum(map(len, archives["flow_samples"].values())) + sum(
        len(v) for k, v in archives.items() if k != "flow_samples")
    expected = dict(doc, control_plane={
        **{k: v for k, v in sec.items() if k not in ("cursors", "archives")},
        "tallies": tallies})
    del expected["digest"]
    assert again == expected


def shipper_fixture_monitor():
    """``shipper_v1_pr29.json``'s data-plane geometry."""
    return small_monitor(
        flow_slots=16, eack_table_size=32, queue_stash_size=32, cms_width=32,
        cms_depth=2, monitored_ports=2)


@pytest.mark.parametrize("name, make_monitor", [
    ("checkpoint_v1_pr14.json", fixture_monitor),
    ("shipper_v1_pr29.json", shipper_fixture_monitor)])
def test_v1_flows_restore_their_reversed_slot_by_the_flow_table_rule(
        name, make_monitor):
    """A v1 flow carries no ``rslot``: the decode derives it from
    ``rev_flow_id`` with the flow table's rule, a capture leaves it out
    again, and the restarted RTT tick reads that cell."""
    with open(os.path.join(os.path.dirname(FIXTURE), name),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    fdocs = doc["control_plane"]["flows"]
    assert fdocs and not any("rslot" in f for f in fdocs)
    sim = Simulator()
    sim.run_until(doc["time_ns"])
    monitor = make_monitor()
    assert restore_dataplane(monitor.program, doc) == doc["dataplane_digest"]
    cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
    restore_control_plane(cp, doc)
    slots = monitor.config.flow_slots
    assert {f.flow_id: f.rslot for f in cp.flows.values()} == {
        f["flow_id"]: slot_of(f["rev_flow_id"], slots) for f in fdocs}
    assert capture_checkpoint(cp)["control_plane"]["flows"] == fdocs

    (flow,) = cp.flows.values()
    rtt_ns = monitor.rtt_loss.rtt.read(flow.rslot)
    assert rtt_ns > 0
    def rtts():
        return [s.value for s in cp.flow_samples[MetricKind.RTT]
                if s.flow_id == flow.flow_id]

    before = len(rtts())
    cp.start()
    sim.run_until(doc["time_ns"] + seconds(1.5))   # one 1 s RTT tick
    cp.stop()
    assert rtts()[before:] == [rtt_ns / 1e6]


if __name__ == "__main__":
    write_fixture(sys.argv[1])
