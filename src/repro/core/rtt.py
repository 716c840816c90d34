"""Algorithm 1: RTT and packet-loss calculation in the data plane (§4.3).

Faithful transcription of the paper's pseudocode (adopted from Chen et
al., "Measuring TCP round-trip time in the data plane"):

- **Data (Seq) packets**: if the sequence number regresses below the
  previously recorded one, count a packet loss (a retransmission
  happened); otherwise record the new sequence number, compute the
  expected ACK ``eACK = seq + total_len - 4*ihl - 4*data_offset``, and
  stash the arrival timestamp under the signature
  ``(reversed_flow_ID, eACK)``.
- **ACK packets**: look up the signature ``(flow_ID, ack_no)``; on a hit
  the RTT is ``now - stashed timestamp`` and is written to
  ``rtt_register[flow_ID]`` (the ACK direction's flow ID, as in the
  paper's pseudocode).

The signature table is hash-indexed and tagged with the full 32-bit
signature hash so that colliding entries are detected rather than
producing bogus RTTs; a cell is consumed (cleared) by the matching ACK.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.netsim.packet import F_ACK, F_SYN
from repro.telemetry import hooks
from repro.p4.hashes import crc32_bytes
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_INGRESS_TAP

if TYPE_CHECKING:
    from repro.p4.histogram import HistogramRegister

_SIG_FMT = struct.Struct("!II")

# Span of the per-flow RTT bins: ``rtt_hist_bins`` log bins over
# 500 us..2 s (48 give a per-bin ratio of ~1.19 — fine enough that the
# bucket-upper-bound quantile estimate sits inside the declared
# distribution tolerance).
RTT_HIST_MIN_NS = 500_000
RTT_HIST_MAX_NS = 2_000_000_000


class RttLossStage(PipelineStage):
    name = "rtt_loss"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        self.config = config
        self.stash_size = config.eack_table_size
        ts_bits = config.timestamp_bits
        self._ts_mask = (1 << ts_bits) - 1

        self.prev_seq = program.register(RegisterArray("prev_seq", config.flow_slots, 32))
        self.pkt_loss = program.register(RegisterArray("pkt_loss", config.flow_slots, 32))
        self.rtt = program.register(RegisterArray("rtt", config.flow_slots, ts_bits))
        self.rtt_count = program.register(RegisterArray("rtt_count", config.flow_slots, 32))
        self.eack_ts = program.register(RegisterArray("eack_ts", self.stash_size, ts_bits))
        self.eack_sig = program.register(RegisterArray("eack_sig", self.stash_size, 32))

        # Per-flow RTT distribution on the same eACK match path: one bin
        # row per flow slot, paired read/flip banks (construction-time
        # binding; the disabled path costs one ``is not None`` test and
        # no import).
        self.rtt_hist: "HistogramRegister | None" = None
        if config.histograms_enabled:
            from repro.p4.histogram import HistogramRegister, log_edges
            self.rtt_hist = program.histogram(HistogramRegister(
                "rtt_hist", config.flow_slots,
                log_edges(RTT_HIST_MIN_NS, RTT_HIST_MAX_NS, config.rtt_hist_bins),
            ))

        self._trace = hooks.tracer
        self.rtt_matches = 0
        self.rtt_misses = 0      # ACK arrived, no stashed signature
        self.rtt_stale = 0       # match older than rtt_max_age_ns, discarded
        self.stash_evictions = 0  # a newer signature overwrote a live cell

    @staticmethod
    def _signature(flow_id: int, ack_no: int) -> int:
        return crc32_bytes(_SIG_FMT.pack(flow_id & 0xFFFFFFFF, ack_no & 0xFFFFFFFF))

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        if meta.ingress_port != PORT_INGRESS_TAP:
            return
        now = meta.ingress_timestamp_ns & self._ts_mask
        # Packet type from TCP flags + total length, as in Algorithm 1:
        # a packet with payload is a Seq packet; a payload-less ACK is an
        # ACK packet.  SYNs are ignored (handshake RTT is not a data RTT).
        if hdr.payload_len > 0:
            self._process_seq(hdr, meta, now)
        elif hdr.flags & F_ACK and not hdr.flags & F_SYN:
            self._process_ack(hdr, meta, now)

    # -- Seq branch ---------------------------------------------------------------

    def _process_seq(self, hdr: ParsedHeaders, meta: StandardMetadata, now: int) -> None:
        idx = meta.flow_slot
        prev = self.prev_seq.read(idx)
        seq = hdr.seq
        # 32-bit serial-number comparison (RFC 1982 style) so the check
        # survives sequence wraparound.
        if prev != 0 and ((seq - prev) & 0xFFFFFFFF) >= 0x80000000:
            # Sequence regressed: a retransmission implies a lost packet.
            self.pkt_loss.add(idx, 1)
            if self._trace is not None:
                self._trace.fire("loss-regression", meta.ingress_timestamp_ns,
                                 flow_id=meta.flow_id, seq=seq, prev_seq=prev)
        else:
            self.prev_seq.write(idx, seq)
            eack = hdr.expected_ack
            sig = self._signature(meta.rev_flow_id, eack)
            cell = sig % self.stash_size
            if self.eack_ts.read(cell) != 0:
                self.stash_evictions += 1
            self.eack_ts.write(cell, now if now != 0 else 1)
            self.eack_sig.write(cell, sig)

    # -- ACK branch ---------------------------------------------------------------

    def _process_ack(self, hdr: ParsedHeaders, meta: StandardMetadata, now: int) -> None:
        sig = self._signature(meta.flow_id, hdr.ack)
        cell = sig % self.stash_size
        stored = self.eack_ts.read(cell)
        if stored != 0 and self.eack_sig.read(cell) == sig:
            rtt = (now - stored) & self._ts_mask
            self.eack_ts.write(cell, 0)
            self.eack_sig.write(cell, 0)
            if rtt > self.config.rtt_max_age_ns:
                # Stale stash entry: the original data packet was lost and
                # its sequence range retransmitted, so this delta measures
                # loss-recovery time, not the path RTT.
                self.rtt_stale += 1
                return
            idx = meta.flow_slot
            self.rtt.write(idx, rtt)
            self.rtt_count.add(idx, 1)
            if self.rtt_hist is not None:
                self.rtt_hist.observe(idx, rtt)
            self.rtt_matches += 1
        else:
            self.rtt_misses += 1
