"""A subsystem that is switched off costs one ``is None`` test per site.

The histogram and time-window externs, the fault injector, the
archiver's sequence-dedup probe and the checkpoint manager are bound at
construction: off, the holder is ``None`` and the hot path tests that.
This is the property the four "disabled ... costs <= 1.02x" clock
budgets existed to protect (docs/observability.md, "Overhead budgets"),
pinned as counts instead: with the subsystem off none of its entry
points is ever called — and a guard replaced by an unconditional call
raises on the ``None`` — while the path's other work is what the
switched-on run does.
"""

import json
from collections import Counter

import pytest

from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import Block, document_run
from repro.netsim.engine import Simulator
from repro.netsim.units import millis, seconds
from repro.p4.histogram import HistogramRegister
from repro.p4.time_windows import TimeWindowRegister
from repro.perfsonar.logstash import (LogstashPipeline, OpenSearchOutputPlugin,
                                      SequenceDedup, TcpInputPlugin,
                                      opensearch_metadata_filter)
from repro.perfsonar.opensearch import OpenSearchStore
from repro.resilience import checkpoint, faults
from repro.resilience.schedule import FaultSchedule

from tests.core.helpers import FlowScript, small_monitor

TRIPLES = 1500  # transit + ACK -> 4,500 scalar pipeline traversals


def _count_calls(monkeypatch, cls, *names):
    """Tally every call of ``cls.<name>`` (the real method still runs)."""
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    return calls


def _stage_run(**overrides):
    """One flow: each data packet crosses the tapped switch (queue
    match) and is ACKed 5 ms later (eACK match); no stash evicts."""
    mon = small_monitor(eack_table_size=4096, queue_stash_size=4096,
                        **overrides)
    script = FlowScript(mon)
    for i in range(TRIPLES):
        t = 1000 + i * millis(1)
        script.transit(1 + i * 1000, 1000, t, t + 200_000)
        script.ack(1 + (i + 1) * 1000, t + millis(5))
    return mon


@pytest.mark.parametrize("flag, extern, holders", [
    ("histograms_enabled", HistogramRegister,
     (lambda mon: mon.rtt_loss.rtt_hist, lambda mon: mon.queue.qdepth_hist)),
    ("forensics_enabled", TimeWindowRegister,
     (lambda mon: mon.queue.time_windows,)),
], ids=["histograms", "forensics"])
def test_a_disabled_extern_is_never_observed(monkeypatch, flag, extern,
                                             holders):
    calls = _count_calls(monkeypatch, extern, "observe")
    off = _stage_run(**{flag: False})
    assert [holder(off) for holder in holders] == [None] * len(holders)
    assert not calls
    on = _stage_run(**{flag: True})
    assert calls["observe"] == len(holders) * TRIPLES
    # The registers both configurations share did the same work.
    assert ({name: reg.ops for name, reg in off.program.registers.items()}
            == {name: reg.ops for name, reg in on.program.registers.items()})


def _report_path_run():
    """A control plane with all six schedule jobs shipping into the
    socket path (JSON line -> ingest -> filter -> output -> store), one
    full round of ticks over a live flow."""
    sim = Simulator()
    mon = small_monitor(histograms_enabled=True, forensics_enabled=True)
    store = OpenSearchStore()
    pipe = LogstashPipeline("guards")
    pipe.add_filter(opensearch_metadata_filter)
    pipe.add_output(OpenSearchOutputPlugin(store, dedup=SequenceDedup()))
    tcp = TcpInputPlugin(pipe)
    # The socket carries one JSON line per document.
    cp = MonitorControlPlane(sim, mon, report_sink=lambda block: [
        tcp.ingest_line(json.dumps(doc)) for doc in block.documents()])
    script = FlowScript(mon)
    script.make_long()
    for i in range(8):
        t = millis(1 + i)
        script.transit(2000 + i * 1000, 1000, t, t + 200_000)
        script.ack(3000 + i * 1000, t + 400_000)
    cp.start()
    sim.run_until(seconds(1.5))
    cp.stop()
    assert len(cp.schedule) == 6
    assert all(cp.last_extraction_ns[name] > 0 for name in cp.schedule)
    assert tcp.messages > 0
    assert sum(store.count(i) for i in store.indices) == tcp.messages
    return cp, tcp, store


def test_without_an_injector_no_fault_decision_is_taken(monkeypatch):
    calls = _count_calls(
        monkeypatch, faults.FaultInjector, "archiver_down",
        "logstash_stalled", "cp_tick_stalled", "clock_skew_ns",
        "cp_crashed", "transport_fate")
    assert faults.injector() is None
    cp, tcp, store = _report_path_run()
    assert cp._faults is None and tcp._faults is None and store._faults is None
    assert not calls
    faults.install(faults.FaultInjector(FaultSchedule(seed=1)))
    try:
        _, tcp, _ = _report_path_run()
    finally:
        faults.uninstall()
    assert calls["cp_tick_stalled"] >= 6
    assert calls["logstash_stalled"] == calls["archiver_down"] == tcp.messages


def test_an_unenveloped_document_skips_the_dedup_books(monkeypatch):
    calls = _count_calls(monkeypatch, SequenceDedup, "is_duplicate", "record")
    store = OpenSearchStore()
    out = OpenSearchOutputPlugin(store, dedup=SequenceDedup())
    row = document_run({"type": "p4_rtt", "flow_id": 7, "value": 12.5})
    out(Block([row]))
    assert not calls and out.documents_written == 1
    out(Block([row], (("_shipper", "_seq"), ("s", 0))))
    assert calls == {"is_duplicate": 1, "record": 1}


def test_without_a_manager_a_round_of_ticks_captures_nothing(monkeypatch,
                                                             tmp_path):
    calls = _count_calls(monkeypatch, checkpoint.CheckpointManager,
                         "on_tick", "capture")
    assert checkpoint.manager() is None
    cp, _, _ = _report_path_run()
    assert cp._ckpt is None
    assert not calls
    checkpoint.install_manager(checkpoint.CheckpointManager(
        checkpoint.CheckpointStore(str(tmp_path))))
    try:
        _report_path_run()
    finally:
        checkpoint.uninstall_manager()
    assert calls["capture"] == calls["on_tick"] >= 6



def test_telemetry_off_registers_nothing():
    """Off, telemetry costs nothing at construction either: a report
    path and a crash chaos run leave the registry without a family or a
    collector (every read is registered through ``telemetry.reads``,
    which does nothing while telemetry is off)."""
    from repro import telemetry
    from repro.resilience.chaos import bundled_chaos, run_chaos, with_crash

    telemetry.disable()
    telemetry.reset()
    _report_path_run()
    result = run_chaos(with_crash(bundled_chaos(seed=7)["archiver-outage"]),
                       run_twin=False)
    assert result.recovery is not None and result.recovery.restarts >= 1
    registry = telemetry.registry()
    assert len(registry) == 0 and registry._collectors == []
