"""Histogram-extern overhead budget.

The histogram registers follow the construction-time-binding rule: with
``histograms_enabled=False`` (the default) the only residual cost on the
packet hot path is one ``is not None`` test in ``_process_ack`` and one
in the queue-monitor egress body.  This benchmark drives the full
ingress→egress→ACK packet path against bare stage twins that replay the
pre-histogram method bodies, so the measured delta is exactly those
guards, and holds the ratio within 2 % — the same budget the forensics,
resilience and checkpoint guards are held to.

A timed histogram-pipeline run (binning + read-flip extraction +
percentiles + shipped distribution reports) rides along.
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


# -- bare twins: the pre-histogram method bodies ------------------------------

def _bare_process_ack(self, hdr, meta, now):
    """RttLossStage._process_ack exactly as it was before the histogram
    observe branch."""
    sig = self._signature(meta.flow_id, hdr.ack)
    cell = sig % self.stash_size
    stored = self.eack_ts.read(cell)
    if stored != 0 and self.eack_sig.read(cell) == sig:
        rtt = (now - stored) & self._ts_mask
        self.eack_ts.write(cell, 0)
        self.eack_sig.write(cell, 0)
        if rtt > self.config.rtt_max_age_ns:
            self.rtt_stale += 1
            return
        idx = meta.flow_id & self.mask
        self.rtt.write(idx, rtt)
        self.rtt_count.add(idx, 1)
        self.rtt_matches += 1
    else:
        self.rtt_misses += 1


def _bare_queue_process(self, hdr, meta):
    """QueueMonitorStage.process exactly as it was before the per-port
    histogram observe."""
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
    idx = meta.flow_id & self.mask
    self.flow_qdelay.write(idx, delay)
    self.flow_qdelay_max.maximum(idx, delay)
    if hdr.ecn == 3:  # CE
        self.flow_ce.add(idx, 1)


def _monitor(bare: bool):
    mon = stage_monitor()
    assert mon.rtt_loss.rtt_hist is None and mon.queue.qdepth_hist is None
    if bare:
        mon.rtt_loss._process_ack = types.MethodType(
            _bare_process_ack, mon.rtt_loss)
        mon.queue.process = types.MethodType(_bare_queue_process, mon.queue)
    return mon


def _measure_disabled_ratio():
    """Histograms disabled on both sides: the guarded stages vs their
    pre-histogram twins."""
    assert not telemetry.enabled()
    events = event_stream(EVENTS)
    guarded, bare = _monitor(bare=False), _monitor(bare=True)
    return paired_median(lambda: timed(drive_events, guarded, events),
                         lambda: timed(drive_events, bare, events), ROUNDS)


def test_disabled_histogram_overhead_within_budget():
    assert_within(_measure_disabled_ratio, DISABLED_BUDGET,
                  "disabled-histogram packet path vs bare twins (x)")


def test_histogram_pipeline_wall_time(once):
    """The enabled path end to end, timed: 24k packet events binned on
    both match paths, read-flip extraction ticks, percentiles, shipped
    distribution reports."""
    cp, shipped = once(enabled_stage_run, histograms_enabled=True)
    assert cp.histograms.ticks >= 8
    assert any(d.get("type") == "repro-histogram-v1"
               for d in shipped if isinstance(d, dict)), \
        "enabled run shipped no distribution reports"
    binned = (int(cp.histograms.rtt_cumulative.sum())
              + int(cp.monitor.rtt_loss.rtt_hist.snapshot().sum()))
    assert binned >= 8000
