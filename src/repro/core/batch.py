"""Batched execution of the per-packet P4 hot path.

The scalar pipeline (:class:`repro.p4.pipeline.P4Pipeline`) dispatches
every mirrored copy through parser → five stages the moment the TAP
delivers it.  That is the right shape for tracing, profiling and unit
tests, but it pays Python call dispatch, a ``MirrorCopy`` and a
``StandardMetadata`` allocation, four ``struct.pack`` + ``zlib.crc32``
calls and a dozen bound-method register accesses *per packet*.

:class:`BatchKernel` replaces that with a columnar two-phase replay,
engaged by :class:`~repro.core.monitor.P4Monitor` at construction time
(the same twin pattern every instrumentation subsystem uses) only when
no per-packet hook demands scalar dispatch:

1. **Columnar precompute** — mirrored copies accumulate in a plain list
   of ``(pkt, port, ts, egress_port_id, ecn)`` tuples between control
   plane ticks; at flush time the header fields are pulled into columns
   and every hash the stages need (eACK stash signatures, queue-pair
   packet signatures) is computed as one table-driven CRC32 sweep over a
   numpy byte matrix — 20 array ops for the whole batch instead of two
   ``zlib.crc32`` calls per packet.  Flow IDs and count-min row indices
   are memoised per 5-tuple (they are pure functions of it).
2. **Fused replay** — one Python loop applies the exact scalar
   match/action semantics packet-by-packet (the register dependency
   chains — eACK stash hits, CMS claim thresholds, microburst
   hysteresis — are inherently sequential), but register state lives in
   per-register overlay dicts during the batch and is written back to
   the numpy cell arrays with one fancy-indexed assignment per register
   at the end.  Histogram observations are collected and binned with a
   single ``searchsorted`` + ``np.add.at`` per extern.

Equivalence contract: after any flush boundary the program state
(:meth:`P4Program.state_digest`), the digest streams and the stage
counters are byte-identical to what the scalar path would have produced
for the same copies — pinned by ``tests/validation/
test_batch_equivalence.py`` and the mutation suite.  Flush boundaries
are the top of every control-plane extraction tick, the end of every
``Simulator.run``/``run_until`` drain (engine flush hooks), a direct
``process_packet`` injection, a telemetry snapshot, and the buffer cap
(:attr:`BatchKernel.BUFFER_CAP`).

Every tally the scalar path keeps is exact here too: stage counters
(``rtt_matches``, ``slot_collisions``, ...), sketch update counts, and
``RegisterArray.ops`` — the replay counts the branches it takes and each
flush converts them to per-register op counts once, never per op.  The
flush ends by handing the pipeline one batch record
(:meth:`P4Pipeline.account_batch`: copies, accepted, rejected, wall
``t0..t1``), which is all telemetry needs, so enabling it keeps the
kernel engaged.

``debug_mutator`` is a test hook: the mutation suite corrupts one lane
of the precomputed columns (a flow-hash collision, a stash timestamp
shift, a suppressed sketch increment) and asserts the differential
checker catches the divergence.
"""

from __future__ import annotations

import struct
import time
import zlib
from typing import Callable, Optional

import numpy as np

from repro.netsim.packet import PROTO_TCP

__all__ = ["BatchKernel", "crc32_rows"]

_M32 = 0xFFFFFFFF
_M16 = 0xFFFF


def _make_crc32_table() -> np.ndarray:
    """The standard reflected CRC-32 (zlib) table as uint32."""
    table = np.empty(256, dtype=np.uint32)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
        table[byte] = crc
    return table


_CRC32_TABLE = _make_crc32_table()


def crc32_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise CRC32 of an ``(n, k)`` uint8 matrix.

    Bit-identical to ``zlib.crc32(bytes(row))`` per row; the sweep is
    column-major so the whole batch advances one byte per table lookup.
    """
    crc = np.full(mat.shape[0], _M32, dtype=np.uint32)
    for j in range(mat.shape[1]):
        crc = _CRC32_TABLE[(crc ^ mat[:, j]) & 0xFF] ^ (crc >> 8)
    return crc ^ np.uint32(_M32)


def _be32(values, n: int) -> np.ndarray:
    """(n, 4) big-endian byte view of a 32-bit column."""
    return np.asarray(values, dtype=">u4").view(np.uint8).reshape(n, 4)


def _be16(values, n: int) -> np.ndarray:
    """(n, 2) big-endian byte view of a 16-bit column."""
    return np.asarray(values, dtype=">u2").view(np.uint8).reshape(n, 2)


def _mix32_array(h: np.ndarray) -> np.ndarray:
    """Vectorised murmur3 finaliser, matching ``repro.p4.hashes._mix32``."""
    h = h.astype(np.uint32, copy=True)
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h


class BatchKernel:
    """Columnar replay engine bound to one :class:`P4Monitor`."""

    #: Copies buffered before an append forces a flush (the monitor's
    #: batched sink and the TAP's fast mirror path both test it).  Sized
    #: for memory: the transient columns scale with it, and flushes twice
    #: as large were not measurably faster.
    BUFFER_CAP = 4096

    def __init__(self, monitor) -> None:
        self.monitor = monitor
        config = monitor.config
        ft = monitor.flow_table
        rtt = monitor.rtt_loss
        flight = monitor.flight
        queue = monitor.queue
        mb = monitor.microburst

        self.buf: list = []
        # Test hook: called with the column dict after precompute, before
        # the fused replay (see the mutation suite).
        self.debug_mutator: Optional[Callable[[dict], None]] = None

        # Geometry / policy scalars.
        self.flow_mask = config.flow_slots - 1
        self.ts_mask = (1 << config.timestamp_bits) - 1
        self.long_flow_bytes = config.long_flow_bytes
        self.rtt_max_age_ns = config.rtt_max_age_ns
        self.eack_stash_size = config.eack_table_size
        self.q_stash_size = config.queue_stash_size
        self.mb_on_ns = mb.on_threshold_ns
        self.mb_off_ns = mb.off_threshold_ns
        self.ports = config.monitored_ports

        # Stage + extern handles (counters live on the stage objects).
        self.parser = monitor.pipeline.parser
        self.pipeline = monitor.pipeline
        self.flow_table = ft
        self.rtt_loss = rtt
        self.queue = queue
        self.microburst = mb
        self.long_flow_digest = ft.long_flow_digest
        self.termination_digest = ft.termination_digest
        self.mb_digest = mb.digest

        # Raw register cell arrays (uint64); overlays resolve misses here.
        self.c_flow_key = ft.flow_key._cells
        self.c_flow_src = ft.flow_src._cells
        self.c_flow_dst = ft.flow_dst._cells
        self.c_flow_sport = ft.flow_sport._cells
        self.c_flow_dport = ft.flow_dport._cells
        self.c_flow_bytes = ft.flow_bytes._cells
        self.c_flow_pkts = ft.flow_pkts._cells
        self.c_flow_start = ft.flow_start._cells
        self.c_flow_last = ft.flow_last._cells
        self.c_flow_fin = ft.flow_fin._cells
        self.c_prev_seq = rtt.prev_seq._cells
        self.c_pkt_loss = rtt.pkt_loss._cells
        self.c_rtt = rtt.rtt._cells
        self.c_rtt_count = rtt.rtt_count._cells
        self.c_eack_ts = rtt.eack_ts._cells
        self.c_eack_sig = rtt.eack_sig._cells
        self.c_high_seq = flight.high_seq._cells
        self.c_high_ack = flight.high_ack._cells
        self.c_flow_rwnd = flight.flow_rwnd._cells
        self.c_q_stash_ts = queue.stash_ts._cells
        self.c_q_stash_sig = queue.stash_sig._cells
        self.c_flow_qdelay = queue.flow_qdelay._cells
        self.c_flow_qdelay_max = queue.flow_qdelay_max._cells
        self.c_flow_ce = queue.flow_ce._cells
        self.c_mb_state = mb.state._cells
        self.c_mb_start = mb.start._cells
        self.c_mb_peak = mb.peak._cells
        self.c_mb_pkts = mb.pkt_count._cells

        # Registers in the order flush() lays out its per-flush op counts.
        self._op_regs = (
            ft.flow_key, ft.flow_src, ft.flow_dst, ft.flow_sport,
            ft.flow_dport, ft.flow_start, ft.flow_fin, ft.flow_bytes,
            ft.flow_pkts, ft.flow_last,
            rtt.prev_seq, rtt.pkt_loss, rtt.eack_ts, rtt.eack_sig, rtt.rtt,
            rtt.rtt_count,
            flight.high_seq, flight.high_ack, flight.flow_rwnd,
            queue.stash_ts, queue.stash_sig, queue.flow_qdelay,
            queue.flow_qdelay_max, queue.flow_ce,
            mb.state, mb.start, mb.peak, mb.pkt_count,
        )

        self.cms = ft.cms
        self.cms_rows_arr = ft.cms._rows
        self.cms_width = ft.cms.width
        self.cms_conservative = ft.cms.conservative

        self.rtt_hist = rtt.rtt_hist
        self.qdepth_hist = queue.qdepth_hist
        if self.rtt_hist is not None:
            self._rtt_edges = np.asarray(self.rtt_hist.edges, dtype=np.int64)
            self._q_edges = np.asarray(self.qdepth_hist.edges, dtype=np.int64)
        self.time_windows = queue.time_windows

        # flow 4-tuple -> (fid, rid, slot, cms row indices).  Protocol is
        # constant (the parser rejected everything but TCP).  Entries are
        # pure functions of the key, so the memo is simply dropped once
        # flow churn has grown it past a few register files' worth.
        self._flow_memo: dict = {}
        self._flow_memo_cap = 4 * config.flow_slots

    # -- per-flow derived values ------------------------------------------------

    def _flow_entry(self, src_ip, dst_ip, src_port, dst_port):
        """Memoised (flow_id, rev_flow_id, slot, cms_rows) — identical to
        FlowIdEngine.ids + the three HashEngine row indices."""
        fwd = struct.pack("!IIHHB", src_ip, dst_ip, src_port, dst_port, PROTO_TCP)
        rev = struct.pack("!IIHHB", dst_ip, src_ip, dst_port, src_port, PROTO_TCP)
        fid = zlib.crc32(fwd) & _M32
        rid = zlib.crc32(rev) & _M32
        width = self.cms_width
        rows = [fid % width]
        for salt in range(1, self.cms._rows.shape[0]):
            h = fid ^ ((salt * 0x9E3779B9) & _M32)
            h &= _M32
            h ^= h >> 16
            h = (h * 0x85EBCA6B) & _M32
            h ^= h >> 13
            h = (h * 0xC2B2AE35) & _M32
            h ^= h >> 16
            rows.append(h % width)
        entry = (fid, rid, fid & self.flow_mask, tuple(rows))
        return entry

    # -- the flush ---------------------------------------------------------------

    def flush(self) -> None:
        buf = self.buf
        n = len(buf)
        if n == 0:
            return
        t0_ns = time.perf_counter_ns()

        # ---- phase 1: columnar precompute -------------------------------------
        parser = self.parser
        memo = self._flow_memo
        if len(memo) > self._flow_memo_cap:
            memo.clear()
        memo_get = memo.get

        # A mirrored packet shows up as (at least) one ingress and one
        # egress row per batch; header fields are immutable once built
        # (ECN is captured per copy at append time), so extraction runs
        # once per object and the per-row work is one tuple append.  The
        # C-level transpose below then yields the mutable column lists
        # the mutation hook and the vectorised hashes operate on.
        pmemo: dict = {}
        pmemo_get = pmemo.get
        rejected = 0
        out: list = []
        append = out.append
        rej_row = (False, 0, 0, 0, 0, 0, 0, 0, (), 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        for pkt, port, ts, epid, ecn in buf:
            pid = id(pkt)
            ext = pmemo_get(pid)
            if ext is None:
                if pkt.proto != PROTO_TCP:
                    pmemo[pid] = False
                    rejected += 1
                    append(rej_row)
                    continue
                src = pkt.src_ip
                dst = pkt.dst_ip
                sport = pkt.src_port
                dport = pkt.dst_port
                key = (src, dst, sport, dport)
                ent = memo_get(key)
                if ent is None:
                    ent = self._flow_entry(src, dst, sport, dport)
                    memo[key] = ent
                fid, rid, slot, rows = ent
                seq = pkt.seq & _M32
                flags = pkt.flags
                plen = pkt.payload_len
                # eACK per Algorithm 1: SYN and FIN each consume a seqno.
                ext = (fid, rid, slot, rows, seq, pkt.ack & _M32, flags,
                       plen, pkt.ip_total_len, pkt.window, src, dst,
                       sport, dport, pkt.ip_id,
                       (seq + plen + (flags & 0x02 == 0x02)
                        + (flags & 0x01)) & _M32)
                pmemo[pid] = ext
            elif ext is False:
                rejected += 1
                append(rej_row)
                continue
            (fid, rid, slot, rows, seq, ack, flags, plen, tlen, window,
             src, dst, sport, dport, ipid, eack) = ext
            append((True, port, ts, epid, ecn, fid, rid, slot, rows, seq,
                    ack, flags, plen, tlen, window, src, dst, sport,
                    dport, ipid, eack))
        # The rows hold everything from here on: release the buffered
        # copies (and with them the packets only the buffer kept alive)
        # and the extraction memo before the columns are built, and the
        # rows once they are.
        buf.clear()
        del pmemo, pmemo_get
        (a_valid, a_port, a_ts, a_epid, a_ecn, a_fid, a_rid, a_slot,
         a_rows, a_seq, a_ack, a_flags, a_plen, a_tlen, a_window, a_src,
         a_dst, a_sport, a_dport, a_ipid, a_eack) = map(list, zip(*out))
        del out, append  # the bound method would keep the rows alive
        # CMS increment amount; the mutation suite zeroes lanes here to
        # model a broken sketch-update kernel.
        a_cms_add = list(a_plen)
        accepted = n - rejected
        parser.accepted += accepted
        parser.rejected += rejected

        # Vectorised signature hashes (one CRC32 sweep per matrix):
        #   data path : crc32(!II rev_flow_id, eACK)
        #   ACK path  : crc32(!II flow_id, ack)
        #   queue pair: crc32(!IIHIIH src, dst, ip_id, seq, ack, len&0xFFFF)
        m = np.empty((n, 8), dtype=np.uint8)
        m[:, 0:4] = _be32(a_rid, n)
        m[:, 4:8] = _be32(a_eack, n)
        a_sig_data = crc32_rows(m).tolist()
        m[:, 0:4] = _be32(a_fid, n)
        m[:, 4:8] = _be32(a_ack, n)
        a_sig_ack = crc32_rows(m).tolist()
        q = np.empty((n, 20), dtype=np.uint8)
        q[:, 0:4] = _be32(a_src, n)
        q[:, 4:8] = _be32(a_dst, n)
        q[:, 8:10] = _be16(a_ipid, n)
        q[:, 10:14] = _be32(a_seq, n)
        q[:, 14:18] = _be32(a_ack, n)
        q[:, 18:20] = _be16([t & _M16 for t in a_tlen], n)
        a_qsig = crc32_rows(q).tolist()

        if self.debug_mutator is not None:
            self.debug_mutator({
                "valid": a_valid, "port": a_port, "ts": a_ts, "ecn": a_ecn,
                "fid": a_fid, "rid": a_rid, "slot": a_slot, "rows": a_rows,
                "seq": a_seq, "ack": a_ack, "flags": a_flags,
                "plen": a_plen, "tlen": a_tlen, "window": a_window,
                "eack": a_eack, "cms_add": a_cms_add,
                "sig_data": a_sig_data, "sig_ack": a_sig_ack, "qsig": a_qsig,
                "epid": a_epid,
            })

        # ---- phase 2: fused sequential replay ----------------------------------
        # Overlay dicts hold batch-local register state as plain ints;
        # misses fall back to the numpy cells.  Masks follow each
        # register's declared width exactly.
        TSM = self.ts_mask
        FMASK = self.flow_mask
        M64 = (1 << 64) - 1
        long_flow_bytes = self.long_flow_bytes
        rtt_max_age = self.rtt_max_age_ns
        eack_size = self.eack_stash_size
        q_size = self.q_stash_size
        mb_on = self.mb_on_ns
        mb_off = self.mb_off_ns
        ports = self.ports
        conservative = self.cms_conservative
        cms_depth_range = range(self.cms_rows_arr.shape[0])

        c_flow_key = self.c_flow_key
        c_flow_bytes = self.c_flow_bytes
        c_flow_pkts = self.c_flow_pkts
        c_flow_start = self.c_flow_start
        c_flow_fin = self.c_flow_fin
        c_prev_seq = self.c_prev_seq
        c_pkt_loss = self.c_pkt_loss
        c_rtt = self.c_rtt
        c_rtt_count = self.c_rtt_count
        c_eack_ts = self.c_eack_ts
        c_eack_sig = self.c_eack_sig
        c_high_seq = self.c_high_seq
        c_high_ack = self.c_high_ack
        c_q_stash_ts = self.c_q_stash_ts
        c_q_stash_sig = self.c_q_stash_sig
        c_flow_qdelay_max = self.c_flow_qdelay_max
        c_flow_ce = self.c_flow_ce
        c_mb_state = self.c_mb_state
        c_mb_start = self.c_mb_start
        c_mb_peak = self.c_mb_peak
        c_mb_pkts = self.c_mb_pkts
        cms_rows_arr = self.cms_rows_arr

        ov_flow_key: dict = {}
        ov_flow_src: dict = {}
        ov_flow_dst: dict = {}
        ov_flow_sport: dict = {}
        ov_flow_dport: dict = {}
        ov_flow_bytes: dict = {}
        ov_flow_pkts: dict = {}
        ov_flow_start: dict = {}
        ov_flow_last: dict = {}
        ov_flow_fin: dict = {}
        ov_prev_seq: dict = {}
        ov_pkt_loss: dict = {}
        ov_rtt: dict = {}
        ov_rtt_count: dict = {}
        ov_eack_ts: dict = {}
        ov_eack_sig: dict = {}
        ov_high_seq: dict = {}
        ov_high_ack: dict = {}
        ov_flow_rwnd: dict = {}
        ov_q_stash_ts: dict = {}
        ov_q_stash_sig: dict = {}
        ov_flow_qdelay: dict = {}
        ov_flow_qdelay_max: dict = {}
        ov_flow_ce: dict = {}
        ov_mb_state: dict = {}
        ov_mb_start: dict = {}
        ov_mb_peak: dict = {}
        ov_mb_pkts: dict = {}
        ov_cms: dict = {}

        # Preload every overlay cell the replay loop can *read*, so the
        # hot loop's register accesses are guaranteed dict hits (no
        # None-miss branch, no scalar numpy fallback).  Forward slots,
        # reverse slots, monitored ports and CMS rows are tiny sets; the
        # two stash tables are preloaded at the (vectorised) signature
        # cells this batch can address.
        # The sets come from this batch's own columns, read after the
        # mutation hook (which only shuffles lanes *between* rows), so a
        # flush costs what its copies touch, not what the kernel has
        # ever seen.
        sl = list(set(a_slot))
        ix = np.fromiter(sl, dtype=np.intp, count=len(sl))
        for ov, cells in (
            (ov_flow_key, c_flow_key), (ov_flow_bytes, c_flow_bytes),
            (ov_flow_pkts, c_flow_pkts), (ov_flow_start, c_flow_start),
            (ov_flow_fin, c_flow_fin), (ov_prev_seq, c_prev_seq),
            (ov_pkt_loss, c_pkt_loss), (ov_rtt_count, c_rtt_count),
            (ov_high_seq, c_high_seq),
            (ov_flow_qdelay_max, c_flow_qdelay_max),
            (ov_flow_ce, c_flow_ce),
        ):
            ov.update(zip(sl, cells[ix].tolist()))
        rl_list = list({rid_b & FMASK for rid_b in set(a_rid)})
        ix = np.fromiter(rl_list, dtype=np.intp, count=len(rl_list))
        ov_high_ack.update(zip(rl_list, c_high_ack[ix].tolist()))
        for rows_t in set(a_rows):  # () on parser-rejected rows
            for r, col in enumerate(rows_t):
                ov_cms[(r, col)] = int(cms_rows_arr[r, col])
        pl = list(range(ports))
        for ov, cells in ((ov_mb_state, c_mb_state), (ov_mb_start, c_mb_start),
                          (ov_mb_peak, c_mb_peak), (ov_mb_pkts, c_mb_pkts)):
            ov.update(zip(pl, cells[:ports].tolist()))
        ecells_arr = np.unique(np.concatenate((
            np.asarray(a_sig_data, dtype=np.int64) % eack_size,
            np.asarray(a_sig_ack, dtype=np.int64) % eack_size)))
        ecells = ecells_arr.tolist()
        ov_eack_ts.update(zip(ecells, c_eack_ts[ecells_arr].tolist()))
        ov_eack_sig.update(zip(ecells, c_eack_sig[ecells_arr].tolist()))
        qcells_arr = np.unique(np.asarray(a_qsig, dtype=np.int64) % q_size)
        qcells = qcells_arr.tolist()
        ov_q_stash_ts.update(zip(qcells, c_q_stash_ts[qcells_arr].tolist()))
        ov_q_stash_sig.update(zip(qcells, c_q_stash_sig[qcells_arr].tolist()))

        rtt_hist_obs: list = []
        qdepth_hist_obs: list = []
        tw_obs: list = []

        ft = self.flow_table
        rl = self.rtt_loss
        qs = self.queue
        mb = self.microburst
        rtt_hist_on = self.rtt_hist is not None
        qdepth_hist_on = self.qdepth_hist is not None
        tw_on = self.time_windows is not None
        slot_collisions = 0
        cms_updates = 0
        rtt_evictions = 0
        rtt_matches = 0
        rtt_misses = 0
        rtt_stale = 0
        pairs_matched = 0
        pairs_missed = 0
        q_evictions = 0
        bursts = 0
        # Branch tallies kept only for the per-register op counts derived
        # after the loop (the scalar stages' short-circuited reads).
        claims = 0
        tracked = 0
        fin_checks = 0
        terminations = 0
        data_pkts = 0
        regressions = 0
        ack_sig_mismatch = 0
        q_sig_mismatch = 0
        ce_marks = 0
        mb_starts = 0
        mb_in_burst = 0
        long_flow_emit = self.long_flow_digest.emit
        termination_emit = self.termination_digest.emit
        mb_emit = self.mb_digest.emit

        for i in range(n):
            if not a_valid[i]:
                continue
            fid = a_fid[i]
            ts = a_ts[i]
            if a_port[i] == 0:
                # ---- ingress-TAP copy: flow table, RTT/loss, flight ----
                plen = a_plen[i]
                flags = a_flags[i]
                slot = a_slot[i]
                key = ov_flow_key[slot]
                fslot = -1
                if key == fid:
                    fslot = slot
                elif key == 0:
                    if plen > 0:
                        # CMS update (returns post-update estimate).
                        cms_updates += 1
                        rows = a_rows[i]
                        amount = a_cms_add[i]
                        if conservative:
                            current = None
                            for r in cms_depth_range:
                                v = ov_cms[(r, rows[r])]
                                if current is None or v < current:
                                    current = v
                            est = current + amount
                            for r in cms_depth_range:
                                cell = (r, rows[r])
                                if ov_cms[cell] < est:
                                    ov_cms[cell] = est
                        else:
                            est = None
                            for r in cms_depth_range:
                                cell = (r, rows[r])
                                v = ov_cms[cell] + amount
                                ov_cms[cell] = v
                                if est is None or v < est:
                                    est = v
                        if est >= long_flow_bytes:
                            # _claim: register file + long_flow digest.
                            ov_flow_key[slot] = fid
                            ov_flow_src[slot] = a_src[i]
                            ov_flow_dst[slot] = a_dst[i]
                            ov_flow_sport[slot] = a_sport[i] & _M16
                            ov_flow_dport[slot] = a_dport[i] & _M16
                            ov_flow_start[slot] = ts & TSM
                            ov_flow_fin[slot] = 0
                            fslot = slot
                            claims += 1
                            long_flow_emit(
                                flow_id=fid,
                                rev_flow_id=a_rid[i],
                                slot=slot,
                                src_ip=a_src[i],
                                dst_ip=a_dst[i],
                                src_port=a_sport[i],
                                dst_port=a_dport[i],
                                first_seen_ns=ts,
                            )
                else:
                    slot_collisions += 1

                if fslot >= 0:
                    tracked += 1
                    ov_flow_bytes[slot] = (ov_flow_bytes[slot] + a_tlen[i]) & M64
                    ov_flow_pkts[slot] = (ov_flow_pkts[slot] + 1) & M64
                    ov_flow_last[slot] = ts & TSM
                    if flags & 0x05:  # FIN | RST
                        fin_checks += 1
                        if not ov_flow_fin[slot]:
                            terminations += 1
                            ov_flow_fin[slot] = 1
                            start = ov_flow_start[slot]
                            # _on_termination reads pkt_loss[slot]
                            # synchronously: sync that overlay cell first.
                            c_pkt_loss[slot] = ov_pkt_loss[slot]
                            termination_emit(
                                flow_id=fid,
                                slot=slot,
                                src_ip=a_src[i],
                                dst_ip=a_dst[i],
                                src_port=a_sport[i],
                                dst_port=a_dport[i],
                                start_ns=start,
                                end_ns=ts,
                                total_bytes=ov_flow_bytes[slot],
                                total_packets=ov_flow_pkts[slot],
                            )

                # ---- RTT / loss (Algorithm 1) + flight size ----
                # The two stages branch on the same packet type and touch
                # disjoint registers, so each type is handled once.
                now48 = ts & TSM
                if plen > 0:
                    data_pkts += 1
                    idx = slot  # fid & FMASK == slot
                    prev = ov_prev_seq[idx]
                    seq = a_seq[i]
                    if prev != 0 and ((seq - prev) & _M32) >= 0x80000000:
                        regressions += 1
                        ov_pkt_loss[idx] = (ov_pkt_loss[idx] + 1) & _M32
                    else:
                        ov_prev_seq[idx] = seq
                        sig = a_sig_data[i]
                        cell = sig % eack_size
                        if ov_eack_ts[cell] != 0:
                            rtt_evictions += 1
                        ov_eack_ts[cell] = now48 if now48 != 0 else 1
                        ov_eack_sig[cell] = sig
                    nv = (seq + plen) & _M32
                    if nv > ov_high_seq[idx]:
                        ov_high_seq[idx] = nv
                elif flags & 0x10 and not flags & 0x02:  # ACK, not SYN
                    sig = a_sig_ack[i]
                    cell = sig % eack_size
                    stored = ov_eack_ts[cell]
                    if stored != 0 and ov_eack_sig[cell] == sig:
                        rtt_v = (now48 - stored) & TSM
                        ov_eack_ts[cell] = 0
                        ov_eack_sig[cell] = 0
                        if rtt_v > rtt_max_age:
                            rtt_stale += 1
                        else:
                            idx = slot
                            ov_rtt[idx] = rtt_v
                            ov_rtt_count[idx] = (ov_rtt_count[idx] + 1) & _M32
                            if rtt_hist_on:
                                rtt_hist_obs.append((idx, rtt_v))
                            rtt_matches += 1
                    else:
                        rtt_misses += 1
                        if stored != 0:
                            ack_sig_mismatch += 1
                    idx = a_rid[i] & FMASK
                    nv = a_ack[i]
                    if nv > ov_high_ack[idx]:
                        ov_high_ack[idx] = nv
                    ov_flow_rwnd[idx] = a_window[i] & _M32

                # ---- queue monitor, ingress branch: stash the timestamp ----
                sig = a_qsig[i]
                cell = sig % q_size
                if ov_q_stash_ts[cell] != 0:
                    q_evictions += 1
                ov_q_stash_ts[cell] = now48 if now48 != 0 else 1
                ov_q_stash_sig[cell] = sig
                # Microburst stage ignores ingress copies.
            else:
                # ---- egress-TAP copy: queue pairing + microburst ----
                sig = a_qsig[i]
                cell = sig % q_size
                stored = ov_q_stash_ts[cell]
                if stored == 0 or ov_q_stash_sig[cell] != sig:
                    pairs_missed += 1
                    if stored != 0:
                        q_sig_mismatch += 1
                    continue
                now48 = ts & TSM
                delay = (now48 - stored) & TSM
                ov_q_stash_ts[cell] = 0
                ov_q_stash_sig[cell] = 0
                pairs_matched += 1
                epid = a_epid[i]
                port_q = epid % ports
                if qdepth_hist_on:
                    qdepth_hist_obs.append((port_q, delay))
                if tw_on:
                    tw_obs.append((now48, fid, a_tlen[i], delay))
                idx = a_slot[i]
                ov_flow_qdelay[idx] = delay
                if delay > ov_flow_qdelay_max[idx]:
                    ov_flow_qdelay_max[idx] = delay
                if a_ecn[i] == 3:  # CE
                    ce_marks += 1
                    ov_flow_ce[idx] = (ov_flow_ce[idx] + 1) & _M32

                # Microburst hysteresis (per monitored egress queue).
                if not ov_mb_state[port_q]:
                    if delay >= mb_on:
                        mb_starts += 1
                        ov_mb_state[port_q] = 1
                        ov_mb_start[port_q] = max(0, ts - delay) & TSM
                        ov_mb_peak[port_q] = delay & TSM
                        ov_mb_pkts[port_q] = 1
                    continue
                mb_in_burst += 1
                if (delay & TSM) > ov_mb_peak[port_q]:
                    ov_mb_peak[port_q] = delay & TSM
                ov_mb_pkts[port_q] = (ov_mb_pkts[port_q] + 1) & _M32
                if delay <= mb_off:
                    ov_mb_state[port_q] = 0
                    start = ov_mb_start[port_q]
                    bursts += 1
                    peak = ov_mb_peak[port_q]
                    pkts_v = ov_mb_pkts[port_q]
                    mb_emit(
                        start_ns=start,
                        duration_ns=max(0, ts - start),
                        peak_queue_delay_ns=peak,
                        packets=pkts_v,
                        port_id=port_q,
                    )

        # ---- write-back: overlays -> register cells, histograms, counters ------
        for ov, cells in (
            (ov_flow_key, c_flow_key), (ov_flow_src, self.c_flow_src),
            (ov_flow_dst, self.c_flow_dst), (ov_flow_sport, self.c_flow_sport),
            (ov_flow_dport, self.c_flow_dport), (ov_flow_bytes, c_flow_bytes),
            (ov_flow_pkts, c_flow_pkts), (ov_flow_start, c_flow_start),
            (ov_flow_last, self.c_flow_last), (ov_flow_fin, c_flow_fin),
            (ov_prev_seq, c_prev_seq), (ov_pkt_loss, c_pkt_loss),
            (ov_rtt, c_rtt), (ov_rtt_count, c_rtt_count),
            (ov_eack_ts, c_eack_ts), (ov_eack_sig, c_eack_sig),
            (ov_high_seq, c_high_seq), (ov_high_ack, c_high_ack),
            (ov_flow_rwnd, self.c_flow_rwnd),
            (ov_q_stash_ts, c_q_stash_ts), (ov_q_stash_sig, c_q_stash_sig),
            (ov_flow_qdelay, self.c_flow_qdelay),
            (ov_flow_qdelay_max, self.c_flow_qdelay_max),
            (ov_flow_ce, c_flow_ce),
            (ov_mb_state, c_mb_state), (ov_mb_start, c_mb_start),
            (ov_mb_peak, c_mb_peak), (ov_mb_pkts, c_mb_pkts),
        ):
            if ov:
                cells[np.fromiter(ov.keys(), dtype=np.intp, count=len(ov))] = \
                    np.fromiter(ov.values(), dtype=np.uint64, count=len(ov))
        if ov_cms:
            rr = np.empty(len(ov_cms), dtype=np.intp)
            cc = np.empty(len(ov_cms), dtype=np.intp)
            vv = np.empty(len(ov_cms), dtype=np.uint64)
            for j, ((r, c), v) in enumerate(ov_cms.items()):
                rr[j] = r
                cc[j] = c
                vv[j] = v
            cms_rows_arr[rr, cc] = vv
        if rtt_hist_obs:
            hist = self.rtt_hist
            idxs, vals = zip(*rtt_hist_obs)
            bins = np.searchsorted(self._rtt_edges,
                                   np.asarray(vals, dtype=np.int64), side="left")
            np.add.at(hist._banks[hist.active],
                      (np.asarray(idxs, dtype=np.intp), bins), 1)
            hist.ops += len(rtt_hist_obs)
        if qdepth_hist_obs:
            hist = self.qdepth_hist
            idxs, vals = zip(*qdepth_hist_obs)
            bins = np.searchsorted(self._q_edges,
                                   np.asarray(vals, dtype=np.int64), side="left")
            np.add.at(hist._banks[hist.active],
                      (np.asarray(idxs, dtype=np.intp), bins), 1)
            hist.ops += len(qdepth_hist_obs)
        if tw_obs:
            # Sequential replay: window cells hold last-writer signatures
            # and running maxima, so updates are order-dependent and must
            # land exactly as the scalar twin would apply them.
            tw_observe = self.time_windows.observe
            for tw_ts, tw_fid, tw_len, tw_delay in tw_obs:
                tw_observe(tw_ts, tw_fid, tw_len, tw_delay)

        ft.slot_collisions += slot_collisions
        self.cms.updates += cms_updates
        rl.stash_evictions += rtt_evictions
        rl.rtt_matches += rtt_matches
        rl.rtt_misses += rtt_misses
        rl.rtt_stale += rtt_stale
        qs.pairs_matched += pairs_matched
        qs.pairs_missed += pairs_missed
        qs.stash_evictions += q_evictions
        mb.bursts_detected += bursts

        # RegisterArray.ops, exactly as the scalar stages would have
        # tallied them: one term per read/write/add/maximum call site,
        # times the number of copies that reached it (``_op_regs`` order).
        egress = pairs_matched + pairs_missed
        ingress = accepted - egress
        stashed = data_pkts - regressions       # Seq branch, no regression
        acks = rtt_matches + rtt_stale + rtt_misses
        consumed = rtt_matches + rtt_stale      # eACK cell hit and cleared
        for reg, ops in zip(self._op_regs, (
            ingress + claims,                               # flow_key
            claims, claims, claims, claims,                 # src/dst/sport/dport
            claims + terminations,                          # flow_start
            claims + fin_checks + terminations,             # flow_fin
            tracked + terminations,                         # flow_bytes
            tracked + terminations,                         # flow_pkts
            tracked,                                        # flow_last
            data_pkts + stashed,                            # prev_seq
            regressions,                                    # pkt_loss
            2 * stashed + acks + consumed,                  # eack_ts
            stashed + 2 * consumed + ack_sig_mismatch,      # eack_sig
            rtt_matches, rtt_matches,                       # rtt, rtt_count
            data_pkts, acks, acks,                          # high_seq/ack, rwnd
            2 * ingress + egress + pairs_matched,           # q_stash_ts
            ingress + 2 * pairs_matched + q_sig_mismatch,   # q_stash_sig
            pairs_matched, pairs_matched,                   # qdelay, qdelay_max
            ce_marks,                                       # flow_ce
            pairs_matched + mb_starts + bursts,             # mb_state
            mb_starts + bursts,                             # mb_start
            mb_starts + mb_in_burst + bursts,               # mb_peak
            mb_starts + mb_in_burst + bursts,               # mb_pkts
        )):
            reg.ops += ops

        self.pipeline.account_batch(n, accepted, rejected, t0_ns,
                                    time.perf_counter_ns())
