"""A shipper checkpoint written by the per-row shipper keeps draining.

``fixtures/shipper_v1_pr29.json`` is a ``repro-checkpoint-v1`` document
written by the last commit whose :class:`ResilientShipper` sent every
report row alone, under its own ``_seq`` (f0e327d): a tiny control plane
ships into a transport that goes down at t=1.05 s and stays down, so the
checkpoint holds acked envelopes, a full spool of per-row entries
(``{"doc": ...}``) and a non-empty dead-letter buffer of per-row dicts.
A later shipper must restore it and deliver each of those envelopes
exactly once, in the order the writer would have, each as a block of
one.  ``python -m tests.resilience.test_shipper_fixture PATH`` re-runs
the recipe (the scripted world below) and writes PATH; regenerating it
at a later commit defeats its purpose.
"""

import json
import os
import sys

from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.logstash import OpenSearchOutputPlugin, SequenceDedup
from repro.perfsonar.opensearch import OpenSearchStore
from repro.resilience.checkpoint import capture_checkpoint, content_digest
from repro.resilience.delivery import DeliveryConfig, ResilientShipper
from repro.resilience.faults import ArchiveUnavailable

from tests.core.helpers import FlowScript, small_monitor
from tests.core.test_control_plane import drive_stream

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "shipper_v1_pr29.json")
SOURCE = "p4-controlplane"


class _Wire:
    """Delivers until ``down_at_ns``; what it delivers, it also archives
    through an output plugin that dedups on the envelope."""

    def __init__(self, sim, down_at_ns=None):
        self.sim = sim
        self.down_at_ns = down_at_ns
        self.dedup = SequenceDedup()
        self.output = OpenSearchOutputPlugin(OpenSearchStore(),
                                             dedup=self.dedup)
        self.blocks = []

    def __call__(self, block):
        if self.down_at_ns is not None and self.sim.now >= self.down_at_ns:
            raise ArchiveUnavailable("scripted outage")
        self.output(block)
        self.blocks.append(block)


def write_fixture(path):
    sim = Simulator()
    wire = _Wire(sim, down_at_ns=seconds(1.05))
    shipper = ResilientShipper(
        sim, wire, config=DeliveryConfig(spool_limit=4, dead_letter_limit=64),
        source=SOURCE, seed=5)
    monitor = small_monitor(flow_slots=16, eack_table_size=32,
                            queue_stash_size=32, cms_width=32, cms_depth=2,
                            monitored_ports=2)
    cp = MonitorControlPlane(sim, monitor, report_sink=shipper)
    cp.start()
    script = FlowScript(monitor)
    sim.at(seconds(0.05), script.make_long, seconds(0.05))
    drive_stream(sim, script, rate_bytes_per_s=200_000, duration_s=2.5)
    sim.run_until(seconds(2.7))
    cp.stop()
    shipper.close()
    doc = capture_checkpoint(cp, dedup=wire.dedup, seq=3)
    doc["digest"] = content_digest(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _load():
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["digest"] == content_digest(doc), "fixture was edited"
    return doc


def _written(doc):
    """What the writer left: its ack book, then the envelopes it still
    owed, in its delivery order (spool, then dead letters)."""
    sec = doc["shipper"]
    owed = [entry["doc"] for entry in sec["spool"]] + sec["dead_letters"]
    return sec, [tuple(key) for key in sec["acked_keys"]], owed


def test_fixture_holds_what_it_pins():
    doc = _load()
    assert os.path.getsize(FIXTURE) < 100_000
    sec, acked, owed = _written(doc)
    assert acked and sec["spool"] and sec["dead_letters"]
    assert all(set(entry) == {"doc", "attempts", "not_before_ns"}
               for entry in sec["spool"])
    assert all(isinstance(d, dict) for d in sec["dead_letters"])
    assert len({(d["_shipper"], d["_seq"]) for d in owed}) == len(owed)
    assert doc["dedup"]["sources"][SOURCE]["seen"] == [seq for _, seq in acked]


def test_per_row_checkpoint_drains_exactly_once_as_blocks_of_one():
    doc = _load()
    sec, acked, owed = _written(doc)
    sim = Simulator()
    sim.run_until(doc["time_ns"])
    wire = _Wire(sim)
    wire.dedup.restore_state(doc["dedup"])
    successor = ResilientShipper(sim, wire, source=f"{SOURCE}:r1", seed=5)
    successor.restore_state(sec)
    assert successor.seq == sec["seq"]
    assert successor.pending == len(sec["spool"])
    assert len(successor.dead_letters) == len(sec["dead_letters"])
    assert successor.dead_letter_evicted_rows == \
        sec["counters"]["dead_letter_evictions"]

    for _ in range(16):
        successor.redeliver_dead_letters()
        successor.kick()
        if not successor.pending and not successor.dead_letters:
            break
    assert not successor.pending and not successor.dead_letters

    # Each owed envelope arrives once, in the writer's order, alone, with
    # the fields the writer spooled; the archive keeps every one.
    assert all(len(block) == 1 for block in wire.blocks)
    delivered = [json.loads(json.dumps(block.documents()[0]))
                 for block in wire.blocks]
    assert delivered == owed
    assert wire.output.documents_written == len(owed)
    assert wire.output.duplicates_dropped == 0
    book = {(d["_shipper"], d["_seq"]): 1 for d in owed}
    book.update((tuple(key), 1) for key in acked)
    assert successor.acked_keys == book

    # Redelivering any of them again is dropped whole by the archive.
    wire.output(wire.blocks[0])
    assert wire.output.duplicates_dropped == 1
    assert wire.output.documents_written == len(owed)


if __name__ == "__main__":
    write_fixture(sys.argv[1])
