"""Per-packet queueing delay from the TAP pair (§4.2).

The TAPs duplicate each packet twice: once as it enters the core switch
and once as it leaves.  The programmable switch computes the queueing
delay as the time difference between the two copies.  The ingress copy's
timestamp is stashed in a hash-indexed register keyed by a signature of
the packet's invariant header fields; the egress copy looks it up,
producing a per-packet delay that is stored per flow (for control-plane
occupancy sampling) and handed to the microburst stage via packet
metadata.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.p4.hashes import crc32_bytes
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_EGRESS_TAP, PORT_INGRESS_TAP

if TYPE_CHECKING:
    from repro.p4.histogram import HistogramRegister
    from repro.p4.time_windows import TimeWindowRegister

_PKT_SIG_FMT = struct.Struct("!IIHIIH")

# Lowest queue-depth bin edge; the highest is the 100 % occupancy point,
# ``config.max_queue_delay_ns()``.
QDEPTH_HIST_MIN_NS = 1_000
# Finest (level-0) forensics window: 1 ms, each level doubles it.
FORENSICS_BASE_WINDOW_NS = 1_000_000


def packet_signature(hdr: ParsedHeaders) -> int:
    """Hash of fields invariant across the switch traversal: addresses,
    IP ID, sequence/ack numbers and total length."""
    return crc32_bytes(
        _PKT_SIG_FMT.pack(
            hdr.src_ip,
            hdr.dst_ip,
            hdr.ip_id,
            hdr.seq,
            hdr.ack,
            hdr.ip_total_len & 0xFFFF,
        )
    )


class QueueMonitorStage(PipelineStage):
    name = "queue_monitor"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        self.config = config
        self.stash_size = config.queue_stash_size
        ts_bits = config.timestamp_bits
        self._ts_mask = (1 << ts_bits) - 1

        self.stash_ts = program.register(
            RegisterArray("q_stash_ts", self.stash_size, ts_bits)
        )
        self.stash_sig = program.register(RegisterArray("q_stash_sig", self.stash_size, 32))
        # Latest per-flow queueing delay, read by the control plane at t_Q.
        self.flow_qdelay = program.register(
            RegisterArray("flow_qdelay", config.flow_slots, ts_bits)
        )
        # Worst delay seen since the last control-plane clear (peak-hold).
        self.flow_qdelay_max = program.register(
            RegisterArray("flow_qdelay_max", config.flow_slots, ts_bits)
        )
        # CE-marked packets per flow (ECN extension): the egress copy
        # carries the mark the queue applied, so congestion signalled
        # without drops is visible too.
        self.flow_ce = program.register(
            RegisterArray("flow_ce_marks", config.flow_slots, 32)
        )

        # Per-port queue-depth distribution from the matched TAP pairs:
        # one bin row per monitored egress port, read-flip banks.
        self.ports = config.monitored_ports
        self.qdepth_hist: "HistogramRegister | None" = None
        if config.histograms_enabled:  # the extern's module loads only then
            from repro.p4.histogram import HistogramRegister, log_edges
            self.qdepth_hist = program.histogram(HistogramRegister(
                "qdepth_hist", self.ports,
                log_edges(QDEPTH_HIST_MIN_NS, config.max_queue_delay_ns(),
                          config.qdepth_hist_bins),
            ))

        # Queue-ancestry time windows on the matched TAP-pair path: who
        # occupied the queue, window by window, at every coarsening level.
        self.time_windows: "TimeWindowRegister | None" = None
        if config.forensics_enabled:
            from repro.p4.time_windows import TimeWindowRegister
            self.time_windows = program.time_window(TimeWindowRegister(
                "time_windows",
                levels=config.forensics_levels,
                cells=config.forensics_cells,
                base_window_ns=FORENSICS_BASE_WINDOW_NS,
            ))

        self.pairs_matched = 0
        self.pairs_missed = 0
        self.stash_evictions = 0

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
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
        if self.time_windows is not None:
            self.time_windows.observe(now, meta.flow_id, hdr.ip_total_len, delay)
        idx = meta.flow_slot
        self.flow_qdelay.write(idx, delay)
        self.flow_qdelay_max.maximum(idx, delay)
        if hdr.ecn == 3:  # CE
            self.flow_ce.add(idx, 1)
