"""Time-window forensics overhead budget.

The time-window registers follow the construction-time-binding rule:
with ``forensics_enabled=False`` (the default) the only residual cost on
the packet hot path is one ``is not None`` test in the queue-monitor
egress body.  This benchmark drives the full ingress→egress→ACK packet
path against a bare stage twin that replays the pre-forensics method
body, so the measured delta is exactly that guard, and holds the ratio
within 2 % — the same budget the histogram, resilience and checkpoint
guards are held to.

A timed forensics-pipeline run (per-level window updates + bank-flip
extraction ticks + a culprit query over the full run) rides along.
"""

import types

from repro import telemetry
from repro.core.queue_monitor import (PORT_EGRESS_TAP, PORT_INGRESS_TAP,
                                      packet_signature)

from benchmarks.harness import (assert_within, drive_events,
                                enabled_stage_run, event_stream,
                                paired_median, stage_monitor, timed)

EVENTS = 1500  # transit+ACK triples -> 4500 pipeline traversals per drive
ROUNDS = 16
DISABLED_BUDGET = 1.02


# -- bare twin: the pre-forensics queue-monitor body --------------------------

def _bare_queue_process(self, hdr, meta):
    """QueueMonitorStage.process exactly as it was before the
    time-window observe branch (the histogram guard stays: it is part of
    the baseline this benchmark holds the forensics guard against)."""
    sig = packet_signature(hdr)
    cell = sig % self.stash_size
    if meta.ingress_port == PORT_INGRESS_TAP:
        now = meta.ingress_timestamp_ns & self._ts_mask
        if self.stash_ts.read(cell) != 0:
            self.stash_evictions += 1
        self.stash_ts.write(cell, now if now != 0 else 1)
        self.stash_sig.write(cell, sig)
        return
    if meta.ingress_port != PORT_EGRESS_TAP:
        return
    stored = self.stash_ts.read(cell)
    if stored == 0 or self.stash_sig.read(cell) != sig:
        self.pairs_missed += 1
        return
    now = meta.ingress_timestamp_ns & self._ts_mask
    delay = (now - stored) & self._ts_mask
    self.stash_ts.write(cell, 0)
    self.stash_sig.write(cell, 0)
    self.pairs_matched += 1
    meta.queue_delay_ns = delay
    if self.qdepth_hist is not None:
        self.qdepth_hist.observe(meta.egress_port_id % self.ports, delay)
    idx = meta.flow_id & self.mask
    self.flow_qdelay.write(idx, delay)
    self.flow_qdelay_max.maximum(idx, delay)
    if hdr.ecn == 3:  # CE
        self.flow_ce.add(idx, 1)


def _monitor(bare: bool):
    mon = stage_monitor()
    assert mon.queue.time_windows is None
    if bare:
        mon.queue.process = types.MethodType(_bare_queue_process, mon.queue)
    return mon


def _measure_disabled_ratio():
    """Forensics disabled on both sides: the guarded stage vs its
    pre-forensics twin."""
    assert not telemetry.enabled()
    events = event_stream(EVENTS)
    guarded, bare = _monitor(bare=False), _monitor(bare=True)
    return paired_median(lambda: timed(drive_events, guarded, events),
                         lambda: timed(drive_events, bare, events), ROUNDS)


def test_disabled_forensics_overhead_within_budget():
    assert_within(_measure_disabled_ratio, DISABLED_BUDGET,
                  "disabled-forensics packet path vs bare twin (x)")


def test_forensics_pipeline_wall_time(once):
    """The enabled path end to end, timed: 24k packet events recorded
    into the coarsening windows on the TAP-pair match path, bank-flip
    extraction ticks folding into the queue-ancestry index, one culprit
    query over the whole run."""
    def run():
        cp, _ = enabled_stage_run(forensics_enabled=True)
        return cp, cp.forensics.query(None, 0, cp.sim.now)

    cp, report = once(run)
    assert cp.forensics.ticks >= 8
    assert cp.monitor.queue.time_windows.ops >= 8000
    assert report is not None and report.culprits
    assert report.culprits[0]["bytes"] > 0
