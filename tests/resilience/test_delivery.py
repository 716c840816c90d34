"""Resilient shipper: backoff, spooling, dead letters, ordering,
idempotent dedup."""

import random

import pytest

from repro.core.reports import Block, Run, document_run
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.perfsonar.logstash import SequenceDedup
from repro.resilience.delivery import DeliveryConfig, FaultyTransport, ResilientShipper
from repro.resilience.faults import (
    ArchiveUnavailable,
    DeferredDelivery,
    FaultInjector,
    install,
)
from repro.resilience.schedule import FaultSchedule, FaultWindow


def _doc(block):
    """The one document of a block the shipper delivers (its run of one,
    with the block's tail appended)."""
    doc, = block.documents()
    return doc


class ScriptedTransport:
    """Delivers, except while sim time is inside [fail_from, fail_until)."""

    def __init__(self, sim, fail_from_s=0.0, fail_until_s=0.0):
        self.sim = sim
        self.fail_from_ns = seconds(fail_from_s)
        self.fail_until_ns = seconds(fail_until_s)
        self.delivered = []
        self.attempts = 0

    def __call__(self, block):
        self.attempts += 1
        if self.fail_from_ns <= self.sim.now < self.fail_until_ns:
            raise ArchiveUnavailable("scripted outage")
        self.delivered.append(_doc(block))


def _ship_n(sim, shipper, n, start_s=0.0, gap_s=0.1):
    for i in range(n):
        sim.at(seconds(start_s + i * gap_s), shipper, Block([document_run(
            {"type": "t", "@timestamp": start_s + i * gap_s, "n": i})]))


def test_clean_path_delivers_in_order():
    sim = Simulator()
    transport = ScriptedTransport(sim)
    shipper = ResilientShipper(sim, transport)
    _ship_n(sim, shipper, 5)
    sim.run_until(seconds(1))
    assert [d["_seq"] for d in transport.delivered] == [1, 2, 3, 4, 5]
    assert shipper.acked_total == 5
    assert shipper.pending == 0
    assert shipper.acked_keys == {("p4-controlplane", s): 1 for s in range(1, 6)}


def test_outage_spools_then_redelivers_everything():
    sim = Simulator()
    transport = ScriptedTransport(sim, fail_from_s=0.0, fail_until_s=1.0)
    shipper = ResilientShipper(sim, transport)
    _ship_n(sim, shipper, 8)
    sim.run_until(seconds(5))
    # Every report eventually landed, exactly once, in ship order.
    assert [d["n"] for d in transport.delivered] == list(range(8))
    assert shipper.acked_total == 8
    assert shipper.pending == 0
    assert shipper.retries_total > 0
    assert shipper.stats()["spool_high_watermark"] >= 2


def test_spool_overflow_goes_to_dead_letters_and_counts_evictions():
    sim = Simulator()
    transport = ScriptedTransport(sim, fail_until_s=100.0)  # never up
    config = DeliveryConfig(spool_limit=4, dead_letter_limit=2)
    shipper = ResilientShipper(sim, transport, config=config)
    _ship_n(sim, shipper, 10)
    sim.run_until(seconds(2))
    assert shipper.pending == 4
    assert len(shipper.dead_letters) == 2
    # 10 shipped - 4 spooled - 2 parked = 4 silently overflowed... except
    # nothing is silent: every eviction is counted.
    assert shipper.dead_letter_evictions == 4
    assert shipper.spool_overflow_total == 6
    assert shipper.acked_total == 0


def test_evicted_blocks_are_counted_in_reports_too():
    sim = Simulator()
    transport = ScriptedTransport(sim, fail_until_s=100.0)  # never up
    config = DeliveryConfig(spool_limit=1, dead_letter_limit=1)
    shipper = ResilientShipper(sim, transport, config=config)
    for n in range(4):
        shipper(Block([document_run({"type": "t", "n": n, "row": r})
                       for r in range(3)]))
    assert shipper.pending == 1 and len(shipper.dead_letters) == 1
    assert shipper.dead_letter_evictions == 2
    assert shipper.dead_letter_evicted_rows == 6
    assert shipper.stats()["dead_letter_evicted_rows"] == 6


def test_dead_letter_redelivery_after_recovery():
    sim = Simulator()
    transport = ScriptedTransport(sim, fail_until_s=1.0)
    config = DeliveryConfig(spool_limit=3, dead_letter_limit=8)
    shipper = ResilientShipper(sim, transport, config=config)
    _ship_n(sim, shipper, 6, gap_s=0.05)
    sim.run_until(seconds(3))
    # Spool (3) drained after recovery; 3 reports are parked.
    assert len(shipper.dead_letters) == 3
    moved = shipper.redeliver_dead_letters()
    assert moved == 3
    shipper.kick()
    assert shipper.acked_total == 6
    assert not shipper.dead_letters
    assert shipper.dead_letter_evictions == 0


def test_backoff_grows_and_caps_deterministically():
    config = DeliveryConfig(base_backoff_ns=50_000_000,
                            max_backoff_ns=2_000_000_000,
                            jitter_frac=0.5)
    a = random.Random("x")
    b = random.Random("x")
    delays_a = [config.backoff_ns(n, a) for n in range(12)]
    delays_b = [config.backoff_ns(n, b) for n in range(12)]
    assert delays_a == delays_b, "same seed, same jitter"
    # Exponential up to the cap (jitter adds at most 50%).
    assert delays_a[0] >= 50_000_000
    assert delays_a[3] >= 8 * 50_000_000
    assert max(delays_a) <= int(2_000_000_000 * 1.5)


def test_deferred_delivery_reorders_but_still_acks():
    sim = Simulator()

    class DeferTwice:
        """Holds report 0 in transit across its first two attempts — the
        second deferral happens mid-drain, which is the rotation path
        (report 1 must overtake without report 0 ever being acked)."""

        def __init__(self):
            self.delivered = []
            self.deferrals = 0

        def __call__(self, block):
            doc = _doc(block)
            if doc["n"] == 0 and self.deferrals < 2:
                self.deferrals += 1
                raise DeferredDelivery(seconds(0.5))
            self.delivered.append(doc)

    transport = DeferTwice()
    shipper = ResilientShipper(sim, transport)
    _ship_n(sim, shipper, 2, gap_s=0.01)
    sim.run_until(seconds(3))
    # Report 0 was held in transit: report 1 overtakes it, both ack.
    assert [d["n"] for d in transport.delivered] == [1, 0]
    assert shipper.acked_total == 2
    assert shipper.pending == 0


def test_clock_skew_applied_to_timestamps():
    sim = Simulator()
    install(FaultInjector(
        FaultSchedule(seed=1, windows=[
            FaultWindow("clock_skew", 0.0, 10.0, offset_ms=250.0)]),
        clock=lambda: sim.now))
    transport = ScriptedTransport(sim)
    shipper = ResilientShipper(sim, transport)
    shipper(Block([document_run({"type": "t", "@timestamp": 1.0})]))
    assert transport.delivered[0]["@timestamp"] == pytest.approx(1.25)
    assert shipper.skewed_total == 1
    # A run whose documents vary in their timestamp has each one moved.
    seen = []
    ResilientShipper(sim, seen.append)(Block([Run(("type", "@timestamp"), ("t", (2.0, 3.0)),
                                                  (1,), 2)]))
    assert [doc["@timestamp"] for doc in seen[0].documents()] == [2.25, 3.25]


def test_faulty_transport_duplicates_when_told_to():
    sim = Simulator()
    install(FaultInjector(
        FaultSchedule(seed=1, windows=[
            FaultWindow("report_duplicate", 0.0, 10.0, probability=1.0)]),
        clock=lambda: sim.now))
    delivered = []
    transport = FaultyTransport(delivered.append)
    transport(Block([document_run({"n": 1})], (("_seq",), (1,))))
    assert len(delivered) == 2
    assert delivered[0] == delivered[1]
    assert delivered[0].tail is delivered[1].tail, "the copy keeps the tail"
    assert delivered[0] is not delivered[1], "the duplicate is a copy"
    assert transport.duplicated == 1


# -- SequenceDedup -------------------------------------------------------------


def test_dedup_exact_within_window():
    dd = SequenceDedup(window=64)
    assert not dd.is_duplicate("cp", 1)
    dd.record("cp", 1)
    assert dd.is_duplicate("cp", 1)
    assert not dd.is_duplicate("cp", 2)
    assert not dd.is_duplicate("other", 1), "sources are independent"


def test_dedup_out_of_order_redelivery():
    dd = SequenceDedup(window=64)
    for seq in (1, 3, 4):
        dd.record("cp", seq)
    assert not dd.is_duplicate("cp", 2), "the gap is still deliverable"
    dd.record("cp", 2)
    assert dd.is_duplicate("cp", 2)


def test_dedup_prunes_but_stays_conservative():
    dd = SequenceDedup(window=4)
    for seq in range(1, 11):
        dd.record("cp", seq)
    assert dd.seen_count("cp") <= 5
    # Pruned sequences are assumed archived: dropped, never duplicated.
    assert dd.is_duplicate("cp", 2)
    assert dd.assumed_old >= 1


def test_dedup_prunes_once_per_window_not_on_every_record():
    """Once the window fills, a record must not rebuild the seen set:
    it prunes back to the window only when the set holds twice the
    window, so memory stays within [window, 2 * window] and the
    verdicts stay those of an exact window."""
    window = 64
    dd = SequenceDedup(window=window)
    sets = []
    for seq in range(1, 10 * window + 1):
        dd.record("cp", seq)
        seen = dd._sources["cp"][1]
        if not sets or seen is not sets[-1]:
            sets.append(seen)       # held, so no id is reused
        if seq >= window:
            assert window <= len(seen) < 2 * window
    assert len(sets) - 1 <= 10, f"{len(sets) - 1} rebuilds"
    assert dd.seen_count("cp") == window
    top = 10 * window
    assert not dd.is_duplicate("cp", top + 1)
    assert all(dd.is_duplicate("cp", s) for s in range(1, top + 1))
    assert dd.assumed_old == top - window
    assert dd.checkpoint_state()["sources"]["cp"]["seen"] == \
        list(range(top - window + 1, top + 1))


def test_dedup_rejects_bad_window():
    with pytest.raises(ValueError):
        SequenceDedup(window=0)


def test_a_control_plane_behind_a_shipper_reads_its_archive():
    """The control plane finds its archive through the shipper and the
    transport in front of it (``ResilientShipper`` -> ``FaultyTransport``
    -> ``Archiver.sink``), and its report streams iterate it."""
    from repro.core.config import MetricKind
    from repro.core.control_plane import MonitorControlPlane
    from repro.perfsonar.archiver import Archiver

    from tests.core.helpers import FlowScript, small_monitor
    from tests.core.test_control_plane import drive_stream

    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    archiver = Archiver()
    cp = MonitorControlPlane(sim, mon, report_sink=ResilientShipper(
        sim, FaultyTransport(archiver.sink)))
    assert cp.archive is archiver
    cp.start()
    drive_stream(sim, FlowScript(mon), 500_000, 2.0)
    sim.run_until(seconds(2))
    samples = list(cp.flow_samples[MetricKind.THROUGHPUT])
    assert len(samples) == len(cp.flow_samples[MetricKind.THROUGHPUT]) > 1
    assert [s.value for s in samples] == [
        doc["value"] for doc in archiver.documents("p4_throughput")]
    assert list(cp.aggregate_samples) and len(list(cp.limiter_reports)) == len(
        cp.limiter_reports)
