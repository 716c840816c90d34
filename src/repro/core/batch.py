"""Batched execution of the per-packet P4 hot path.

The scalar pipeline (:class:`repro.p4.pipeline.P4Pipeline`) dispatches
every mirrored copy through parser → five stages the moment the TAP
delivers it.  That is the right shape for tracing, stage-detail
profiling and unit tests, but it pays Python call dispatch, a
``MirrorCopy`` and a ``StandardMetadata`` allocation, four
``struct.pack`` + ``zlib.crc32`` calls and a dozen bound-method register
accesses *per packet*.

:class:`BatchKernel` replaces that with a columnar two-phase replay,
engaged by :class:`~repro.core.monitor.P4Monitor` at construction time
(the same twin pattern every instrumentation subsystem uses) only when
no per-packet hook demands scalar dispatch:

1. **Columnar precompute** — mirrored copies accumulate between control
   plane ticks in one flat list owned by the kernel, five scalars per
   copy (``pkt, port, ts, egress_port_id, ecn``).  At flush time the
   buffer is sliced into columns, parser rejection drops the non-TCP
   rows from every column once, each header field comes out with one
   C-speed ``map(attrgetter(field), pkts)`` pass, and every hash the
   stages need — flow ID and reversed flow ID, count-min row indices,
   eACK stash signatures, queue-pair packet signatures — is computed
   from those columns as array ops (table-driven CRC32 sweeps over numpy
   byte matrices, the murmur mix as uint32 arithmetic).  Nothing is
   memoised per flow: between flushes the kernel holds no per-flow
   Python state.
2. **Fused replay** — one Python loop applies the exact scalar
   match/action semantics packet by packet, because the register
   dependency chains (eACK stash hits, CMS claim thresholds, microburst
   hysteresis) order the updates.  Register state lives in *dense
   batch-local register files* meanwhile: one ``np.unique(...,
   return_inverse=True)`` per index domain (forward ∪ reverse flow
   slots, eACK cells, queue-stash cells, count-min cells; the microburst
   registers are indexed by port) gives every row a local index, each
   register is gathered into a plain list with one fancy-indexed read,
   the loop indexes lists, and one fancy-indexed write per register puts
   the batch back.  Histogram observations are collected and binned with
   a single ``searchsorted`` + ``np.add.at`` per extern.

The sequential loop is the irreducible part — about half of a flush
now; it was a fifth when rows were tuples and registers dicts, the rest
being the same numbers moved between representations.  So two rules
hold from a mirror callback to the end of the flush: **no per-copy
Python container is ever allocated** (ints and ``Packet`` references in
flat lists only — the cyclic collector is driven by net live tracked
containers, and a tuple per buffered copy once made it a third of the
kernel's wall time), and every value crosses the list/numpy boundary at
most once.

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
``t0..t1``), which is all telemetry and the block-detail profiler need,
so enabling either keeps the kernel engaged.
"""

from __future__ import annotations

import time
from itertools import compress
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from repro.netsim.packet import PROTO_TCP

__all__ = ["BatchKernel", "crc32_rows"]

_M32 = 0xFFFFFFFF
_M16 = 0xFFFF
_M64 = (1 << 64) - 1

#: Scalars per buffered copy: pkt, port, ts, egress_port_id, ecn.
_STRIDE = 5

_get_proto = attrgetter("proto")
#: Header fields phase 1 pulls into columns, in unpacking order.
_HEADER_GETTERS = tuple(map(attrgetter, (
    "src_ip", "dst_ip", "src_port", "dst_port", "seq", "ack", "flags",
    "payload_len", "ip_total_len", "window", "ip_id")))


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


def _byte_matrix(n: int, width: int) -> np.ndarray:
    """Uninitialised ``(n, width)`` uint8 matrix stored byte-plane major,
    so each column :func:`crc32_rows` sweeps is contiguous."""
    return np.empty((width, n), dtype=np.uint8).T


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

    #: Copies buffered before an append forces a flush.  Sized for
    #: memory: the transient columns scale with it, and flushes twice as
    #: large were not measurably faster.
    BUFFER_CAP = 4096

    def __init__(self, monitor) -> None:
        self.monitor = monitor
        config = monitor.config
        ft = monitor.flow_table
        rtt = monitor.rtt_loss
        flight = monitor.flight
        queue = monitor.queue
        mb = monitor.microburst

        #: Flat intake: ``pkt, port, ts, egress_port_id, ecn`` per copy.
        #: The monitor's batched sink and the TAP's fast mirror path
        #: ``extend`` it and flush once ``len(buf) >= buf_limit``.
        self.buf: list = []
        self.buf_limit = self.BUFFER_CAP * _STRIDE
        # Test hook (the mutation suite); see _run_debug_mutator.
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

        # Registers by index domain, in the order flush() unpacks its
        # register files and lays out its per-flush op counts.
        slot_regs = (
            ft.flow_key, ft.flow_src, ft.flow_dst, ft.flow_sport,
            ft.flow_dport, ft.flow_start, ft.flow_fin, ft.flow_bytes,
            ft.flow_pkts, ft.flow_last,
            rtt.prev_seq, rtt.pkt_loss, rtt.rtt, rtt.rtt_count,
            flight.high_seq, flight.high_ack, flight.flow_rwnd,
            queue.flow_qdelay, queue.flow_qdelay_max, queue.flow_ce,
        )
        eack_regs = (rtt.eack_ts, rtt.eack_sig)
        q_regs = (queue.stash_ts, queue.stash_sig)
        mb_regs = (mb.state, mb.start, mb.peak, mb.pkt_count)
        self._op_regs = slot_regs + eack_regs + q_regs + mb_regs
        # Raw cell arrays (uint64) the register files gather from and
        # scatter to.
        self._slot_cells = tuple(reg._cells for reg in slot_regs)
        self._eack_cells = tuple(reg._cells for reg in eack_regs)
        self._q_cells = tuple(reg._cells for reg in q_regs)
        self._mb_cells = tuple(reg._cells for reg in mb_regs)
        self.c_pkt_loss = rtt.pkt_loss._cells

        self.cms = ft.cms
        self.cms_width = ft.cms.width
        self.cms_depth = ft.cms.depth
        self.cms_flat = ft.cms._rows.reshape(-1)  # a view: (row, col) -> row * width + col
        self._cms_row_base = (np.arange(self.cms_depth, dtype=np.int64)
                              * self.cms_width)[:, None]

        self.rtt_hist = rtt.rtt_hist
        self.qdepth_hist = queue.qdepth_hist
        self._rtt_edges = self._q_edges = None
        if self.rtt_hist is not None:
            self._rtt_edges = np.asarray(self.rtt_hist.edges, dtype=np.int64)
            self._q_edges = np.asarray(self.qdepth_hist.edges, dtype=np.int64)
        self.time_windows = queue.time_windows

    @property
    def pending(self) -> int:
        """Copies buffered since the last flush."""
        return len(self.buf) // _STRIDE

    def _run_debug_mutator(self, cols: dict) -> None:
        """Hand the precomputed columns to ``debug_mutator`` as mutable
        lists (``rows``: one tuple of count-min column indices per row).

        The mutation suite corrupts one lane (a flow-hash collision, a
        stash signature alias, a suppressed sketch increment) and asserts
        the differential checker catches the divergence.  Ordering
        contract: the hook runs after every hash is computed and
        **before** any batch-local index is derived — the slot, eACK,
        queue and count-min domains are all built from the lanes the
        hook returns, so a mutator may move values between rows freely
        and a flush still costs what its copies touch.  ``valid`` is
        all-true: parser-rejected rows were dropped before the columns
        existed.
        """
        lanes = {name: col.tolist() for name, col in cols.items()
                 if isinstance(col, np.ndarray)}
        lanes["rows"] = list(zip(*lanes["rows"]))
        self.debug_mutator({**cols, **lanes})
        for name, lane in lanes.items():
            cols[name] = np.array(lane, dtype=np.int64)
        cols["rows"] = cols["rows"].T

    # -- the flush ---------------------------------------------------------------

    def flush(self) -> None:
        buf = self.buf
        copies = len(buf) // _STRIDE
        if copies == 0:
            return
        t0_ns = time.perf_counter_ns()

        # ---- phase 1: columnar precompute -------------------------------------
        # ECN was captured per copy at append time (downstream queues
        # CE-mark the shared Packet after the mirror point); every other
        # header field is immutable once built and is read per packet.
        pkts, a_port, a_ts, a_epid, a_ecn = [
            buf[lane::_STRIDE] for lane in range(_STRIDE)]
        buf.clear()
        proto = list(map(_get_proto, pkts))
        n = proto.count(PROTO_TCP)
        rejected = copies - n
        if rejected:
            keep = [p == PROTO_TCP for p in proto]
            pkts, a_port, a_ts, a_epid, a_ecn = [
                list(compress(col, keep))
                for col in (pkts, a_port, a_ts, a_epid, a_ecn)]
        self.parser.accepted += n
        self.parser.rejected += rejected
        if n == 0:
            self.pipeline.account_batch(copies, 0, rejected, t0_ns,
                                        time.perf_counter_ns())
            return
        (a_src, a_dst, a_sport, a_dport, a_seq, a_ack, a_flags, a_plen,
         a_tlen, a_window, a_ipid) = [list(map(get, pkts))
                                      for get in _HEADER_GETTERS]
        # The columns hold everything from here on: release the packets
        # only the buffer kept alive.
        del pkts

        # Flow IDs: crc32(!IIHHB 5-tuple), forward and reversed.
        b_src = _be32(a_src, n)
        b_dst = _be32(a_dst, n)
        b_sport = _be16(a_sport, n)
        b_dport = _be16(a_dport, n)
        tup = _byte_matrix(n, 13)
        tup[:, 12] = PROTO_TCP
        tup[:, 0:4] = b_src
        tup[:, 4:8] = b_dst
        tup[:, 8:10] = b_sport
        tup[:, 10:12] = b_dport
        fids = crc32_rows(tup).astype(np.int64)
        tup[:, 0:4] = b_dst
        tup[:, 4:8] = b_src
        tup[:, 8:10] = b_dport
        tup[:, 10:12] = b_sport
        rids = crc32_rows(tup).astype(np.int64)

        # Count-min column per sketch row (HashEngine.index: plain CRC
        # for salt 0, salt-keyed murmur mix otherwise).
        width = self.cms_width
        rows = np.empty((self.cms_depth, n), dtype=np.int64)
        rows[0] = fids % width
        for salt in range(1, self.cms_depth):
            rows[salt] = _mix32_array(fids ^ ((salt * 0x9E3779B9) & _M32)) % width

        # Signature hashes (one CRC32 sweep per matrix):
        #   data path : crc32(!II rev_flow_id, eACK)
        #   ACK path  : crc32(!II flow_id, ack)
        #   queue pair: crc32(!IIHIIH src, dst, ip_id, seq, ack, len&0xFFFF)
        # eACK per Algorithm 1: SYN and FIN each consume a seqno.
        seqs = np.array(a_seq, dtype=np.int64)
        tcp_flags = np.array(a_flags, dtype=np.int64)
        eacks = (seqs + np.array(a_plen, dtype=np.int64)
                 + ((tcp_flags >> 1) & 1) + (tcp_flags & 1)) & _M32
        b_ack = _be32(a_ack, n)
        m = _byte_matrix(n, 8)
        m[:, 0:4] = _be32(rids, n)
        m[:, 4:8] = _be32(eacks, n)
        data_sigs = crc32_rows(m).astype(np.int64)
        m[:, 0:4] = _be32(fids, n)
        m[:, 4:8] = b_ack
        ack_sigs = crc32_rows(m).astype(np.int64)
        q = _byte_matrix(n, 20)
        q[:, 0:4] = b_src
        q[:, 4:8] = b_dst
        q[:, 8:10] = _be16(a_ipid, n)
        q[:, 10:14] = _be32(seqs, n)
        q[:, 14:18] = b_ack
        q[:, 18:20] = _be16(np.array(a_tlen, dtype=np.int64) & _M16, n)
        qsigs = crc32_rows(q).astype(np.int64)

        fslots = fids & self.flow_mask
        # CMS increment amount; the mutation suite zeroes lanes here to
        # model a broken sketch-update kernel.
        a_cms_add = a_plen
        if self.debug_mutator is not None:
            a_cms_add = list(a_plen)
            cols = {
                "valid": [True] * n, "port": a_port, "ts": a_ts,
                "ecn": a_ecn, "epid": a_epid, "seq": a_seq, "ack": a_ack,
                "flags": a_flags, "plen": a_plen, "tlen": a_tlen,
                "window": a_window, "cms_add": a_cms_add,
                "fid": fids, "rid": rids, "slot": fslots, "rows": rows,
                "eack": eacks, "sig_data": data_sigs, "sig_ack": ack_sigs,
                "qsig": qsigs,
            }
            self._run_debug_mutator(cols)
            fids, rids, fslots, rows, data_sigs, ack_sigs, qsigs = (
                cols[name] for name in ("fid", "rid", "slot", "rows",
                                        "sig_data", "sig_ack", "qsig"))

        # ---- phase 2: fused sequential replay ----------------------------------
        # Dense batch-local register files: per index domain, the
        # distinct cells this batch can address and every row's index
        # into them; per register, a list over those cells.  The slot
        # domain is shared by forward and reverse slots (high_ack and
        # flow_rwnd are written at the reverse slot, which may be
        # another tracked flow's forward slot).
        eack_size = self.eack_stash_size
        slots, inv = np.unique(
            np.concatenate((fslots, rids & self.flow_mask)), return_inverse=True)
        l_slot = inv[:n].tolist()
        l_rslot = inv[n:].tolist()
        ecells, inv = np.unique(
            np.concatenate((data_sigs % eack_size, ack_sigs % eack_size)),
            return_inverse=True)
        l_dcell = inv[:n].tolist()
        l_acell = inv[n:].tolist()
        qcells, inv = np.unique(qsigs % self.q_stash_size, return_inverse=True)
        l_qcell = inv.tolist()
        ccells, inv = np.unique((rows + self._cms_row_base).ravel(),
                                return_inverse=True)
        l_cms = inv.reshape(rows.shape).tolist()  # per sketch row, n indices
        slot_ids = slots.tolist()
        a_fid = fids.tolist()
        a_sig_data = data_sigs.tolist()
        a_sig_ack = ack_sigs.tolist()
        a_qsig = qsigs.tolist()

        ports = self.ports
        slot_files = [cells[slots].tolist() for cells in self._slot_cells]
        eack_files = [cells[ecells].tolist() for cells in self._eack_cells]
        q_files = [cells[qcells].tolist() for cells in self._q_cells]
        mb_files = [cells[:ports].tolist() for cells in self._mb_cells]
        cms = self.cms_flat[ccells].tolist()
        (r_flow_key, r_flow_src, r_flow_dst, r_flow_sport, r_flow_dport,
         r_flow_start, r_flow_fin, r_flow_bytes, r_flow_pkts, r_flow_last,
         r_prev_seq, r_pkt_loss, r_rtt, r_rtt_count,
         r_high_seq, r_high_ack, r_flow_rwnd,
         r_flow_qdelay, r_flow_qdelay_max, r_flow_ce) = slot_files
        r_eack_ts, r_eack_sig = eack_files
        r_q_stash_ts, r_q_stash_sig = q_files
        r_mb_state, r_mb_start, r_mb_peak, r_mb_pkts = mb_files

        # Masks follow each register's declared width exactly.
        TSM = self.ts_mask
        long_flow_bytes = self.long_flow_bytes
        rtt_max_age = self.rtt_max_age_ns
        mb_on = self.mb_on_ns
        mb_off = self.mb_off_ns
        c_pkt_loss = self.c_pkt_loss

        rtt_hist_idx: list = []
        rtt_hist_val: list = []
        qdepth_hist_idx: list = []
        qdepth_hist_val: list = []
        tw_obs: list = []  # flat: now48, fid, ip_total_len, delay per match

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

        for i, port, ts, fid, ls, qsig, qc in zip(
                range(n), a_port, a_ts, a_fid, l_slot, a_qsig, l_qcell):
            if port == 0:
                # ---- ingress-TAP copy: flow table, RTT/loss, flight ----
                plen = a_plen[i]
                flags = a_flags[i]
                key = r_flow_key[ls]
                is_tracked = key == fid
                if not is_tracked:
                    if key != 0:
                        slot_collisions += 1
                    elif plen > 0:
                        # CMS update (returns post-update estimate).
                        cms_updates += 1
                        amount = a_cms_add[i]
                        est = None
                        for col in l_cms:
                            v = cms[col[i]] + amount
                            cms[col[i]] = v
                            if est is None or v < est:
                                est = v
                        if est >= long_flow_bytes:
                            # _claim: register file + long_flow digest.
                            r_flow_key[ls] = fid
                            r_flow_src[ls] = a_src[i]
                            r_flow_dst[ls] = a_dst[i]
                            r_flow_sport[ls] = a_sport[i] & _M16
                            r_flow_dport[ls] = a_dport[i] & _M16
                            r_flow_start[ls] = ts & TSM
                            r_flow_fin[ls] = 0
                            is_tracked = True
                            claims += 1
                            long_flow_emit(
                                flow_id=fid,
                                rev_flow_id=int(rids[i]),
                                slot=slot_ids[ls],
                                src_ip=a_src[i],
                                dst_ip=a_dst[i],
                                src_port=a_sport[i],
                                dst_port=a_dport[i],
                                first_seen_ns=ts,
                            )

                if is_tracked:
                    tracked += 1
                    r_flow_bytes[ls] = (r_flow_bytes[ls] + a_tlen[i]) & _M64
                    r_flow_pkts[ls] = (r_flow_pkts[ls] + 1) & _M64
                    r_flow_last[ls] = ts & TSM
                    if flags & 0x05:  # FIN | RST
                        fin_checks += 1
                        if not r_flow_fin[ls]:
                            terminations += 1
                            r_flow_fin[ls] = 1
                            slot = slot_ids[ls]
                            # _on_termination reads pkt_loss[slot]
                            # synchronously: sync that cell first.
                            c_pkt_loss[slot] = r_pkt_loss[ls]
                            termination_emit(
                                flow_id=fid,
                                slot=slot,
                                src_ip=a_src[i],
                                dst_ip=a_dst[i],
                                src_port=a_sport[i],
                                dst_port=a_dport[i],
                                start_ns=r_flow_start[ls],
                                end_ns=ts,
                                total_bytes=r_flow_bytes[ls],
                                total_packets=r_flow_pkts[ls],
                            )

                # ---- RTT / loss (Algorithm 1) + flight size ----
                # The two stages branch on the same packet type and touch
                # disjoint registers, so each type is handled once.
                now48 = ts & TSM
                if plen > 0:
                    data_pkts += 1
                    prev = r_prev_seq[ls]
                    seq = a_seq[i]
                    if prev != 0 and ((seq - prev) & _M32) >= 0x80000000:
                        regressions += 1
                        r_pkt_loss[ls] = (r_pkt_loss[ls] + 1) & _M32
                    else:
                        r_prev_seq[ls] = seq
                        cell = l_dcell[i]
                        if r_eack_ts[cell] != 0:
                            rtt_evictions += 1
                        r_eack_ts[cell] = now48 if now48 != 0 else 1
                        r_eack_sig[cell] = a_sig_data[i]
                    nv = (seq + plen) & _M32
                    if nv > r_high_seq[ls]:
                        r_high_seq[ls] = nv
                elif flags & 0x10 and not flags & 0x02:  # ACK, not SYN
                    cell = l_acell[i]
                    stored = r_eack_ts[cell]
                    if stored != 0 and r_eack_sig[cell] == a_sig_ack[i]:
                        rtt_v = (now48 - stored) & TSM
                        r_eack_ts[cell] = 0
                        r_eack_sig[cell] = 0
                        if rtt_v > rtt_max_age:
                            rtt_stale += 1
                        else:
                            r_rtt[ls] = rtt_v
                            r_rtt_count[ls] = (r_rtt_count[ls] + 1) & _M32
                            if rtt_hist_on:
                                rtt_hist_idx.append(slot_ids[ls])
                                rtt_hist_val.append(rtt_v)
                            rtt_matches += 1
                    else:
                        rtt_misses += 1
                        if stored != 0:
                            ack_sig_mismatch += 1
                    lr = l_rslot[i]
                    nv = a_ack[i]
                    if nv > r_high_ack[lr]:
                        r_high_ack[lr] = nv
                    r_flow_rwnd[lr] = a_window[i] & _M32

                # ---- queue monitor, ingress branch: stash the timestamp ----
                if r_q_stash_ts[qc] != 0:
                    q_evictions += 1
                r_q_stash_ts[qc] = now48 if now48 != 0 else 1
                r_q_stash_sig[qc] = qsig
                # Microburst stage ignores ingress copies.
            else:
                # ---- egress-TAP copy: queue pairing + microburst ----
                stored = r_q_stash_ts[qc]
                if stored == 0 or r_q_stash_sig[qc] != qsig:
                    pairs_missed += 1
                    if stored != 0:
                        q_sig_mismatch += 1
                    continue
                now48 = ts & TSM
                delay = (now48 - stored) & TSM
                r_q_stash_ts[qc] = 0
                r_q_stash_sig[qc] = 0
                pairs_matched += 1
                port_q = a_epid[i] % ports
                if qdepth_hist_on:
                    qdepth_hist_idx.append(port_q)
                    qdepth_hist_val.append(delay)
                if tw_on:
                    tw_obs.extend((now48, fid, a_tlen[i], delay))
                r_flow_qdelay[ls] = delay
                if delay > r_flow_qdelay_max[ls]:
                    r_flow_qdelay_max[ls] = delay
                if a_ecn[i] == 3:  # CE
                    ce_marks += 1
                    r_flow_ce[ls] = (r_flow_ce[ls] + 1) & _M32

                # Microburst hysteresis (per monitored egress queue).
                if not r_mb_state[port_q]:
                    if delay >= mb_on:
                        mb_starts += 1
                        r_mb_state[port_q] = 1
                        r_mb_start[port_q] = max(0, ts - delay) & TSM
                        r_mb_peak[port_q] = delay & TSM
                        r_mb_pkts[port_q] = 1
                    continue
                mb_in_burst += 1
                if (delay & TSM) > r_mb_peak[port_q]:
                    r_mb_peak[port_q] = delay & TSM
                r_mb_pkts[port_q] = (r_mb_pkts[port_q] + 1) & _M32
                if delay <= mb_off:
                    r_mb_state[port_q] = 0
                    start = r_mb_start[port_q]
                    bursts += 1
                    mb_emit(
                        start_ns=start,
                        duration_ns=max(0, ts - start),
                        peak_queue_delay_ns=r_mb_peak[port_q],
                        packets=r_mb_pkts[port_q],
                        port_id=port_q,
                    )

        # ---- write-back: register files -> cells, histograms, counters ---------
        for index, files, cell_arrays in (
                (slots, slot_files, self._slot_cells),
                (ecells, eack_files, self._eack_cells),
                (qcells, q_files, self._q_cells),
                (slice(ports), mb_files, self._mb_cells),
                (ccells, (cms,), (self.cms_flat,))):
            for values, cells in zip(files, cell_arrays):
                cells[index] = np.array(values, dtype=np.uint64)
        for hist, edges, idxs, vals in (
                (self.rtt_hist, self._rtt_edges, rtt_hist_idx, rtt_hist_val),
                (self.qdepth_hist, self._q_edges,
                 qdepth_hist_idx, qdepth_hist_val)):
            if idxs:
                bins = np.searchsorted(edges, np.asarray(vals, dtype=np.int64),
                                       side="left")
                np.add.at(hist._banks[hist.active],
                          (np.asarray(idxs, dtype=np.intp), bins), 1)
                hist.ops += len(idxs)
        if tw_obs:
            # Sequential replay: window cells hold last-writer signatures
            # and running maxima, so updates are order-dependent and must
            # land exactly as the scalar twin would apply them.
            tw_observe = self.time_windows.observe
            for k in range(0, len(tw_obs), 4):
                tw_observe(*tw_obs[k:k + 4])

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
        ingress = n - egress
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
            rtt_matches, rtt_matches,                       # rtt, rtt_count
            data_pkts, acks, acks,                          # high_seq/ack, rwnd
            pairs_matched, pairs_matched,                   # qdelay, qdelay_max
            ce_marks,                                       # flow_ce
            2 * stashed + acks + consumed,                  # eack_ts
            stashed + 2 * consumed + ack_sig_mismatch,      # eack_sig
            2 * ingress + egress + pairs_matched,           # q_stash_ts
            ingress + 2 * pairs_matched + q_sig_mismatch,   # q_stash_sig
            pairs_matched + mb_starts + bursts,             # mb_state
            mb_starts + bursts,                             # mb_start
            mb_starts + mb_in_burst + bursts,               # mb_peak
            mb_starts + mb_in_burst + bursts,               # mb_pkts
        )):
            reg.ops += ops

        self.pipeline.account_batch(copies, n, rejected, t0_ns,
                                    time.perf_counter_ns())
