"""Batched execution of the per-packet P4 hot path.

The scalar pipeline (:class:`repro.p4.pipeline.P4Pipeline`) dispatches
every mirrored copy through parser → five stages the moment the TAP
delivers it, paying Python call dispatch, a ``MirrorCopy`` and a
``StandardMetadata``, four ``struct.pack`` + ``zlib.crc32`` calls and a
dozen register method calls *per packet*.  :class:`BatchKernel`, bound
by :class:`~repro.core.monitor.P4Monitor` unless the provenance tracer,
the rate meter, ``batched_path=False`` or a missing simulator demands
the scalar pipeline, replays the copies buffered between two flush
boundaries as columns, cut along the same stage lines.

A copy is parsed once, as it arrives, into a fixed-width header record
(:data:`RECORD`, :func:`record`): the protocol, the eleven header fields
the stages read, and the copy's port, TAP timestamp and lanes
(``MirrorCopy.lanes``: egress port id << 2 | ECN codepoint), fifteen
little-endian int64s appended to the kernel's ``bytearray`` intake by
the TAP's fast mirrors and the monitor's batched sink.  The intake keeps
no ``Packet`` reference, so a later change to the shared packet (a
queue's CE mark) cannot reach a buffered copy.  Appending is all a copy
costs until the flush, which counts the monitor's TAP copies off the
records' ``port`` lane.

- two shared units: :func:`header_columns` (the intake viewed through
  :data:`RECORD_DTYPE` → one int64 column per field, ``lanes`` split
  into ``epid`` and ``ecn``, parser rejects dropped) and
  :func:`hash_lanes` (every hash the stages index by, as array ops:
  CRC32 as one table gather and one XOR per byte column, the murmur mix
  as uint32 arithmetic; flow IDs masked to slots once);
- one replay unit per scalar stage, in pipeline order, each a
  match-action stage over the columns (hash → gather → compare →
  conditional write → digest): :class:`FlowTableUnit` →
  :class:`RttLossUnit` → :class:`FlightSizeUnit` →
  :class:`QueueMonitorUnit` → :class:`MicroburstUnit`.  A unit binds
  its registers from its own stage, names them once and adds that
  stage's counters and ``RegisterArray.ops``, so a register-backed
  feature touches one unit and one scalar stage.  Two lanes cross
  units: the flow-table unit's termination rows, at which the RTT/loss
  unit snapshots ``pkt_loss``, and the queue unit's matched egress rows
  and delays, the microburst detector's input.

A unit whose registers carry order inside a batch replays them as
joins and loops in Python over only the rows a join cannot decide.  The
TAP-pair and eACK stashes share :func:`_stash_join`: rows stable-sorted
by cell, each row's writer found by a running maximum over writer
positions, and a look-up matches iff it is the first after its writer
to carry the writer's signature.  ``prev_seq`` is a running maximum per
slot in serial order, and the ``pkt_loss`` a termination reads is a
grouped count; a slot whose rows span half the sequence space or hold a
0 loops.  Flow-table slots owned at flush start with no FIN/RST of the
owner count by grouped sums; the rows of unclaimed slots (sketch
updates, claims) and terminating slots loop, against *dense batch-local
register files*: one ``np.unique(..., return_inverse=True)`` per index
domain gives each row a local index and each register is gathered into
a list.  Burst hysteresis is a last-crossing comparison per port, so a
burst is a run of a port's rows and its peak and packet count are
grouped reductions: no row loops.
Order-free writes (flight size's running maxima and last write,
per-flow queue delays and CE counts) are array ops.  Timestamps are
masked and subtracted as uint64, so every register width up to 64 bits
holds.

Units record digests and defer their writes.  :meth:`BatchKernel.flush`
emits every digest in row order (one flush can interleave microburst
and flow-table digests), writing ``pkt_loss``'s snapshot into its cell
before each termination because the control plane reads that cell as
the digest arrives; then it applies the writes.  From a mirror callback
to the end of a flush **no per-copy Python container is allocated**:
a copy's record is a ``bytes`` the intake absorbs, which the cyclic
collector does not track (it is driven by net live tracked containers,
and a tuple per buffered copy once made it a third of the kernel's wall
time).

Equivalence contract: after any flush boundary the program state, the
digest sequence and the stage counters equal what the scalar path
produces for the same copies (``tests/validation/
test_batch_equivalence.py`` and the mutation suite).  Flush boundaries
are the top of every extraction tick, the end of every ``Simulator.run``
/ ``run_until`` drain, a direct ``process_packet`` injection, a
telemetry snapshot and the buffer cap (:attr:`BatchKernel.BUFFER_CAP`).
A flush ends by handing the pipeline one batch record
(:meth:`P4Pipeline.account_batch`), all telemetry and the phase
profiler need.
"""

from __future__ import annotations

import struct
import time
import zlib
from functools import cache, partial
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from repro.netsim.packet import PROTO_TCP, Packet

__all__ = ["BatchKernel", "crc32_rows", "record"]

_M32 = 0xFFFFFFFF
_M16 = 0xFFFF
_M64 = (1 << 64) - 1
_HALF = 1 << 31

#: The intake record, one per TAP copy: the protocol, the eleven header
#: fields the stages read, then the copy's port, TAP timestamp and
#: ``MirrorCopy.lanes`` (egress port id << 2 | ECN codepoint).
FIELDS = ("proto", "src", "dst", "sport", "dport", "seq", "ack", "flags",
          "plen", "tlen", "window", "ipid", "port", "ts", "lanes")
RECORD = struct.Struct(f"<{len(FIELDS)}q")
RECORD_DTYPE = np.dtype([(name, "<i8") for name in FIELDS])
_pack = RECORD.pack


def record(pkt: Packet, port: int, ts: int, lanes: int) -> bytes:
    """``pkt``'s headers as the parser sees them at this instant, packed
    with the copy's port, timestamp and lanes into one :data:`RECORD`."""
    return _pack(pkt.proto, pkt.src_ip, pkt.dst_ip, pkt.src_port,
                 pkt.dst_port, pkt.seq, pkt.ack, pkt.flags, pkt.payload_len,
                 pkt.ip_total_len, pkt.window, pkt.ip_id, port, ts, lanes)


@cache
def _crc_table(width: int):
    """CRC-32 over ``width``-byte messages is affine: ``crc(m) = crc(0) ^
    XOR_j T[j, m[j]]`` with ``T[j, b] = crc(b at j, zeros elsewhere) ^
    crc(0)``.  -> (crc(0), T), built from zlib once per width."""
    zero = zlib.crc32(bytes(width))
    unit = np.zeros((width, 256, width), dtype=np.uint8)
    unit[np.arange(width), :, np.arange(width)] = np.arange(256, dtype=np.uint8)
    # A generator, not a list: no 256 * width ints alive at once.
    crcs = (zlib.crc32(row) ^ zero for row in unit.reshape(256 * width, width))
    return zero, np.fromiter(crcs, np.uint32, 256 * width).reshape(width, 256)


def crc32_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise CRC32 of an ``(n, k)`` uint8 matrix.

    Bit-identical to ``zlib.crc32(bytes(row))`` per row; each byte column
    is one gather from its position's table and one XOR.
    """
    zero, table = _crc_table(mat.shape[1])
    crc = np.full(mat.shape[0], zero, dtype=np.uint32)
    for j, column in enumerate(table):
        crc ^= column.take(mat[:, j])  # take: no intp cast of the index
    return crc


def _byte_matrix(n: int, width: int) -> np.ndarray:
    """Uninitialised ``(n, width)`` uint8 matrix stored byte-plane major,
    so each column :func:`crc32_rows` sweeps is contiguous."""
    return np.empty((width, n), dtype=np.uint8).T


def _be(values, n: int, width: int = 4) -> np.ndarray:
    """(n, width) big-endian byte view of a ``width``-byte column."""
    return np.asarray(values, dtype=f">u{width}").view(np.uint8).reshape(n, width)


def _mix32_array(h: np.ndarray) -> np.ndarray:
    """Vectorised murmur3 finaliser, matching ``repro.p4.hashes._mix32``."""
    h = h.astype(np.uint32, copy=True)
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h


# -- shared units: header columns and hashes -----------------------------------


def header_columns(buf: bytearray, copies: int) -> SimpleNamespace:
    """Drain the intake into int64 columns, one per record field past
    ``proto`` with ``lanes`` split into ``epid`` and ``ecn``, keeping the
    ``n`` rows the parser accepts; ``egress`` counts the egress copies,
    parser rejects included."""
    rows = np.frombuffer(buf, dtype=RECORD_DTYPE, count=copies)
    tcp = rows["proto"] == PROTO_TCP
    n = int(np.count_nonzero(tcp))
    c = SimpleNamespace(n=n, egress=int(np.count_nonzero(rows["port"])), **{
        name: rows[name][tcp] if n < copies else rows[name].copy()
        for name in FIELDS[1:-1]})
    lanes = rows["lanes"][tcp] if n < copies else rows["lanes"]
    c.epid, c.ecn = lanes >> 2, lanes & 3
    del rows, lanes  # release the views: a bytearray with an export cannot resize
    buf.clear()
    return c


def hash_lanes(c: SimpleNamespace, width: int, depth: int,
               mask: int) -> SimpleNamespace:
    """Every hash the stages index by, one lane per hash over all rows.

    - ``fid`` / ``rid``: crc32(!IIHHB 5-tuple), forward and reversed, and
      ``slot`` / ``rslot``: their flow-table cells, ``& mask``;
    - ``cms``: column per row of a ``width`` x ``depth`` count-min
      sketch (``HashEngine.index``: CRC for salt 0, else a salted mix);
    - ``sig_data``: crc32(!II rev_flow_id, eACK), with SYN and FIN each
      consuming a seqno as in Algorithm 1; ``sig_ack``: crc32(!II
      flow_id, ack);
    - ``qsig``: crc32(!IIHIIH src, dst, ip_id, seq, ack, len & 0xFFFF).
    """
    n = c.n
    b_src, b_dst = _be(c.src, n), _be(c.dst, n)
    b_sport, b_dport = _be(c.sport, n, 2), _be(c.dport, n, 2)
    tup = _byte_matrix(n, 13)
    tup[:, 12] = PROTO_TCP
    tup[:, 0:4], tup[:, 4:8], tup[:, 8:10], tup[:, 10:12] = (
        b_src, b_dst, b_sport, b_dport)
    fid = crc32_rows(tup).astype(np.int64)
    tup[:, 0:4], tup[:, 4:8], tup[:, 8:10], tup[:, 10:12] = (
        b_dst, b_src, b_dport, b_sport)
    rid = crc32_rows(tup).astype(np.int64)

    cms = np.empty((depth, n), dtype=np.int64)
    cms[0] = fid % width
    for salt in range(1, depth):
        cms[salt] = _mix32_array(fid ^ ((salt * 0x9E3779B9) & _M32)) % width

    eack = (c.seq + c.plen + ((c.flags >> 1) & 1) + (c.flags & 1)) & _M32
    b_ack = _be(c.ack, n)
    m = _byte_matrix(n, 8)
    m[:, 0:4], m[:, 4:8] = _be(rid, n), _be(eack, n)
    sig_data = crc32_rows(m).astype(np.int64)
    m[:, 0:4], m[:, 4:8] = _be(fid, n), b_ack
    sig_ack = crc32_rows(m).astype(np.int64)
    q = _byte_matrix(n, 20)
    q[:, 0:4], q[:, 4:8], q[:, 8:10] = b_src, b_dst, _be(c.ipid, n, 2)
    q[:, 10:14], q[:, 14:18] = _be(c.seq, n), b_ack
    q[:, 18:20] = _be(c.tlen & _M16, n, 2)
    qsig = crc32_rows(q).astype(np.int64)
    return SimpleNamespace(fid=fid, rid=rid, slot=fid & mask, rslot=rid & mask,
                           cms=cms, sig_data=sig_data, sig_ack=sig_ack,
                           qsig=qsig)


# -- register files ------------------------------------------------------------
# A unit's write-back is a list of deferred writes that the driver applies
# once the digests have left: a digest receiver (or a checkpoint it takes)
# reads the state as of the flush's start.


def _gather(cell_arrays: tuple, index) -> list:
    """One register file per register: its cells at ``index``, as a list."""
    return [cells[index].tolist() for cells in cell_arrays]


def _store(index, cell_arrays: tuple, files) -> None:
    for cells, values in zip(cell_arrays, files):
        cells[index] = np.asarray(values, dtype=np.uint64)


def _sorted_by(keys: np.ndarray, domain: int):
    """A stable sort of ``keys`` (each below ``domain``) on the narrowest
    unsigned dtype, which numpy radix-sorts: (order, sorted keys, the
    mask of each key run's first row)."""
    order = np.argsort(keys.astype(np.min_scalar_type(domain - 1)),
                       kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return order, keys, first


def _running_max(cells: np.ndarray, index: np.ndarray, values: np.ndarray):
    """Write-back of ``maximum(index[k], values[k])`` for every k."""
    order, keys, first = _sorted_by(index, cells.size)
    start = np.flatnonzero(first)
    at = keys[start]
    return partial(_store, at, (cells,), (np.maximum(
        cells[at], np.maximum.reduceat(values[order], start).astype(np.uint64)),))


def _last_write(cells: np.ndarray, index: np.ndarray, values: np.ndarray):
    """Write-back of ``write(index[k], values[k])`` for every k, in order."""
    order, keys, first = _sorted_by(index, cells.size)
    end = np.append(first[1:], True)
    return partial(_store, keys[end], (cells,), (values[order[end]],))


def _grouped_add(cells: np.ndarray, index: np.ndarray, width: int,
                 values=None):
    """Write-back of ``add(index[k], values[k])`` (each 1 by default) for
    every k, wrapped at the register's ``width`` mask."""
    order, keys, first = _sorted_by(index, cells.size)
    start = np.flatnonzero(first)
    total = (np.diff(start, append=index.size) if values is None
             else np.add.reduceat(values[order], start))
    at = keys[start]
    return partial(_store, at, (cells,), (
        (cells[at] + total.astype(np.uint64)) & np.uint64(width),))


def _sketch_file(cms, lanes: np.ndarray, rows: np.ndarray):
    """The count-min cells ``rows`` can update as a batch-local file: (its
    write-back, the file, per sketch row each batch row's file index)."""
    flat = cms._rows.reshape(-1)  # (row, col) -> row * width + col
    cells, inv = np.unique(
        (lanes[:, rows] + np.arange(cms.depth)[:, None] * cms.width).ravel(),
        return_inverse=True)
    index = np.zeros_like(lanes)
    index[:, rows] = inv.reshape(cms.depth, rows.size)
    file = flat[cells].tolist()
    return partial(_store, cells, (flat,), (file,)), file, index.tolist()


def _stash_join(stash: tuple, size: int, sig, puts, now):
    """A hash-indexed signature stash replayed over a batch as one join.

    ``stash`` is the (timestamp, signature) register pair of ``size``
    cells.  Per row, ``sig`` picks the cell and ``puts`` says whether the
    row stashes ``now`` (its masked timestamp, 0 stored as 1) or looks
    up.  With the rows stable-sorted by cell, a cell before a row holds
    what its last writer left -- a stashing row, or the cell as it was
    at flush start -- unless a look-up since consumed it: a look-up
    matches iff it is the first after its writer to carry the writer's
    signature.  -> (matched positions in row order, the timestamps they
    found, evictions, mismatched look-ups, write-back)."""
    n = sig.size
    order, cell, first = _sorted_by(sig % size, size)
    put, key = puts[order], sig[order].astype(np.uint64)
    stamp = np.maximum(now[order], np.uint64(1))
    # Each row's writer: 2j+1 for the stashing row at sorted position j,
    # 2s for the cell at flush start when its rows begin at s.
    pos = np.arange(n)
    prior = np.full(n, -1)
    prior[1:] = np.where(put[:-1], 2 * pos[:-1] + 1, -1)
    code = np.maximum.accumulate(np.where(first, 2 * pos, prior))
    src, fresh = code >> 1, (code & 1).astype(bool)
    held_ts = np.where(fresh, stamp[src], stash[0][cell])
    held_sig = np.where(fresh, key[src], stash[1][cell])
    look = ~put
    hits = np.flatnonzero(look & (held_ts != 0) & (held_sig == key))
    hits = np.delete(hits, np.flatnonzero(code[hits][1:] == code[hits][:-1]) + 1)
    hit = np.full(n, -1)
    hit[hits] = hits
    taken = np.maximum.accumulate(hit) >= src  # writer's entry consumed
    found = (held_ts != 0) & ~taken
    evictions = int(np.count_nonzero(put & found))
    mismatched = int(np.count_nonzero(look & found))
    end = np.flatnonzero(np.append(first[1:], True)[:n])
    put, gone = put[end], taken[end]  # the last row stashed, or consumed
    final = (np.where(put, stamp[end], np.where(gone, 0, held_ts[end])),
             np.where(put, key[end], np.where(gone, 0, held_sig[end])))
    rows = order[hits]
    back = np.argsort(rows)
    return (rows[back], held_ts[hits][back], evictions, mismatched,
            partial(_store, cell[end], stash, final))


def _observe(hist, idxs, vals) -> None:
    bins = np.searchsorted(hist.edges, vals)
    np.add.at(hist._banks[hist.active],
              (np.asarray(idxs, dtype=np.intp), bins), 1)
    hist.ops += len(idxs)


def _in_order(observe, *lanes) -> None:
    for args in zip(*lanes):
        observe(*args)


def _packet_types(c: SimpleNamespace):
    """(data, ack) row masks as Algorithm 1 and flight size branch: an
    ingress copy with payload is Seq, a payload-less ACK without SYN ACK."""
    ingress = c.port == 0
    data = ingress & (c.plen > 0)
    return data, ingress & ~data & ((c.flags & 0x12) == 0x10)


def _endpoints(c: SimpleNamespace, i: int) -> dict:
    return dict(src_ip=int(c.src[i]), dst_ip=int(c.dst[i]),
                src_port=int(c.sport[i]), dst_port=int(c.dport[i]))


# -- replay units, in pipeline order -------------------------------------------


class _Unit:
    """One scalar stage's replay over a batch's columns."""

    #: The stage's registers, by attribute, in the order the unit tallies
    #: their ``RegisterArray.ops``.
    REGISTERS: tuple = ()

    def __init__(self, stage, config) -> None:
        self.stage = stage
        self.config = config
        self.registers = tuple(getattr(stage, name) for name in self.REGISTERS)
        self._cells = tuple(reg._cells for reg in self.registers)
        self.ts_mask = (1 << config.timestamp_bits) - 1

    def _now(self, ts: np.ndarray) -> np.ndarray:
        """Timestamps as the stage's registers keep them (uint64, so a
        wrap ``(now - stored) & mask`` holds at every width)."""
        return ts.astype(np.uint64) & np.uint64(self.ts_mask)

    def _tally(self, *counts: int) -> None:
        """``RegisterArray.ops`` as the scalar stage counts them: per
        register, the copies that reached each of its call sites."""
        for reg, ops in zip(self.registers, counts):
            reg.ops += ops


class FlowTableUnit(_Unit):
    """``FlowTableStage``: CMS long-flow claims, per-slot byte/packet
    accounting and terminations.  Out: long_flow and flow_termination
    digests, and the termination rows."""

    REGISTERS = ("flow_key", "flow_src", "flow_dst", "flow_sport",
                 "flow_dport", "flow_start", "flow_fin", "flow_bytes",
                 "flow_pkts", "flow_last")

    def run(self, c: SimpleNamespace, ids: SimpleNamespace):
        """-> (write-back, digests, termination rows).  A slot its owner
        holds at flush start and no FIN/RST of the owner reaches counts
        by grouped sums, and in a free slot that no payload reaches
        nothing happens; the rows of the other slots (sketch updates,
        claims, terminations) take :meth:`_loop`."""
        rows = np.flatnonzero(c.port == 0)
        if not rows.size:
            return [], [], []
        slot = ids.slot[rows]
        key = self._cells[0][slot].astype(np.int64)
        owner = key == ids.fid[rows]
        loop = np.zeros(self.config.flow_slots, dtype=bool)
        loop[slot[((key == 0) & (c.plen[rows] > 0))
                  | (owner & ((c.flags[rows] & 0x05) != 0))]] = True
        loop = loop[slot]
        writes, digests, terms, counts = self._loop(c, ids, rows[loop])
        collisions, updates, claims, tracked, fin_checks = counts
        fast = owner & ~loop
        collisions += int(np.count_nonzero((key != 0) & ~(owner | loop)))
        tracked += int(np.count_nonzero(fast))
        if fast.any():
            at, counted = slot[fast], rows[fast]
            writes += [_grouped_add(self._cells[7], at, _M64, c.tlen[counted]),
                       _grouped_add(self._cells[8], at, _M64),
                       _last_write(self._cells[9], at, self._now(c.ts[counted]))]
        self.stage.slot_collisions += collisions
        self.stage.cms.updates += updates
        ended = len(terms)
        self._tally(rows.size + claims,               # flow_key
                    claims, claims, claims, claims,   # src/dst/sport/dport
                    claims + ended,                   # flow_start
                    claims + fin_checks + ended,      # flow_fin
                    tracked + ended, tracked + ended, # flow_bytes/pkts
                    tracked)                          # flow_last
        return writes, digests, terms

    def _loop(self, c: SimpleNamespace, ids: SimpleNamespace, rows):
        """The scalar stage over ``rows`` against batch-local register
        files.  -> (write-back, digests, termination rows, (collisions,
        sketch updates, claims, tracked rows, FIN/RST checks))."""
        if not rows.size:
            return [], [], [], (0, 0, 0, 0, 0)
        stage, TSM = self.stage, self.ts_mask
        slots, l_slot = np.unique(ids.slot[rows], return_inverse=True)
        files = _gather(self._cells, slots)
        (r_key, r_src, r_dst, r_sport, r_dport, r_start, r_fin, r_bytes,
         r_pkts, r_last) = files
        cms_write, cms, l_cms = _sketch_file(stage.cms, ids.cms,
                                             rows[c.plen[rows] > 0])

        long_flow_bytes = self.config.long_flow_bytes
        digests: list = []
        terms: list = []
        collisions = updates = claims = tracked = fin_checks = 0
        for i, fid, ls, plen, flags, ts, tlen in zip(
                rows.tolist(), ids.fid[rows].tolist(), l_slot.tolist(),
                c.plen[rows].tolist(), c.flags[rows].tolist(),
                c.ts[rows].tolist(), c.tlen[rows].tolist()):
            key = r_key[ls]
            if key != fid:
                if key != 0:
                    collisions += 1
                    continue
                if plen <= 0:
                    continue
                updates += 1
                est = None
                for col in l_cms:
                    v = cms[col[i]] + plen
                    cms[col[i]] = v
                    if est is None or v < est:
                        est = v
                if est < long_flow_bytes:
                    continue
                ends = _endpoints(c, i)
                r_key[ls], r_src[ls], r_dst[ls] = (
                    fid, ends["src_ip"], ends["dst_ip"])
                r_sport[ls] = ends["src_port"] & _M16
                r_dport[ls] = ends["dst_port"] & _M16
                r_start[ls], r_fin[ls] = ts & TSM, 0
                claims += 1
                digests.append((i, stage.long_flow_digest, dict(
                    flow_id=fid, rev_flow_id=int(ids.rid[i]),
                    slot=int(slots[ls]), rev_slot=int(ids.rslot[i]), **ends,
                    first_seen_ns=ts)))
            tracked += 1
            r_bytes[ls] = (r_bytes[ls] + tlen) & _M64
            r_pkts[ls] = (r_pkts[ls] + 1) & _M64
            r_last[ls] = ts & TSM
            if flags & 0x05:  # FIN | RST
                fin_checks += 1
                if not r_fin[ls]:
                    r_fin[ls] = 1
                    terms.append(i)
                    digests.append((i, stage.termination_digest, dict(
                        flow_id=fid, slot=int(slots[ls]), **_endpoints(c, i),
                        start_ns=r_start[ls], end_ns=ts,
                        total_bytes=r_bytes[ls], total_packets=r_pkts[ls])))
        return ([partial(_store, slots, self._cells, files), cms_write],
                digests, terms,
                (collisions, updates, claims, tracked, fin_checks))


class RttLossUnit(_Unit):
    """``RttLossStage``: Algorithm 1 — sequence regressions, the eACK
    stash, RTT samples and their ``rtt_hist`` observations.  In: the
    termination rows; out: per termination row, the write that puts its
    flow's ``pkt_loss`` cell as of that row."""

    REGISTERS = ("prev_seq", "pkt_loss", "rtt", "rtt_count", "eack_ts",
                 "eack_sig")

    def run(self, c: SimpleNamespace, ids: SimpleNamespace, terms: list):
        """-> (write-back, ``pkt_loss`` sync per termination row)."""
        data, acks = _packet_types(c)
        if not (terms or data.any() or acks.any()):
            return [], []
        stage = self.stage
        prev_seq, pkt_loss, rtt, rtt_count = self._cells[:4]
        sent = np.flatnonzero(data)
        seq = c.seq[sent]
        passed = self._accept(ids.slot[sent], seq)
        lost = sent[~passed]
        writes = []
        if passed.any():
            writes.append(_last_write(prev_seq, ids.slot[sent[passed]],
                                      seq[passed]))
        if lost.size:
            writes.append(_grouped_add(pkt_loss, ids.slot[lost], _M32))
        data[lost] = False  # a regression does not stash
        rows = np.flatnonzero(data | acks)
        puts = data[rows]
        hit, stored, evictions, mismatched, stash_write = _stash_join(
            self._cells[4:], self.config.eack_table_size,
            np.where(puts, ids.sig_data[rows], ids.sig_ack[rows]), puts,
            self._now(c.ts[rows]))
        writes.append(stash_write)
        hit = rows[hit]
        sample = (self._now(c.ts[hit]) - stored) & np.uint64(self.ts_mask)
        fresh = sample <= self.config.rtt_max_age_ns
        at, sample = ids.slot[hit[fresh]], sample[fresh]
        if at.size:
            writes += [_last_write(rtt, at, sample),
                       _grouped_add(rtt_count, at, _M32)]
            if stage.rtt_hist is not None:
                writes.append(partial(_observe, stage.rtt_hist, at, sample))

        n_acks, matches, consumed = int(np.count_nonzero(acks)), at.size, hit.size
        stage.stash_evictions += evictions
        stage.rtt_matches += matches
        stage.rtt_misses += n_acks - consumed
        stage.rtt_stale += consumed - matches
        stashed = sent.size - lost.size
        self._tally(sent.size + stashed,                    # prev_seq
                    lost.size,                              # pkt_loss
                    matches, matches,                       # rtt, rtt_count
                    2 * stashed + n_acks + consumed,        # eack_ts
                    stashed + 2 * consumed + mismatched)    # eack_sig
        return writes, self._losses(ids.slot, lost, terms)

    def _accept(self, slot: np.ndarray, seq: np.ndarray) -> np.ndarray:
        """Algorithm 1's sequence gate per data row: a row passes unless
        its sequence regresses, in 32-bit serial order, below the last
        one its slot passed.  Offset from a base (the slot's cell, or its
        first row's sequence while the cell is 0), a slot's rows pass iff
        they reach the running maximum, unless they span half the
        sequence space or hold a 0 (the serial order or the cell's 0 test
        break there): those slots' rows take the scalar loop."""
        order, s, first = _sorted_by(slot, self.config.flow_slots)
        q = seq[order]
        start = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        base = self._cells[0][s[start]].astype(np.int64)
        rel = (q - np.where(base != 0, base, q[start])[group] + _HALF) & _M32
        key = (group << 33) | rel
        floor = np.empty_like(key)
        floor[1:] = key[:-1]
        ok = key >= np.maximum.accumulate(
            np.where(first, (group << 33) | _HALF, floor))
        odd = ((np.maximum(np.maximum.reduceat(rel, start), _HALF)
                - np.minimum(np.minimum.reduceat(rel, start), _HALF) >= _HALF)
               | np.logical_or.reduceat(q == 0, start))
        if odd.any():
            loop = np.flatnonzero(odd[group])
            prev, passes = base.tolist(), []
            for g, sq in zip(group[loop].tolist(), q[loop].tolist()):
                p = prev[g]
                passes.append(p == 0 or ((sq - p) & _M32) < _HALF)
                if passes[-1]:
                    prev[g] = sq
            ok[loop] = passes
        passed = np.empty_like(ok)
        passed[order] = ok
        return passed

    def _losses(self, slot: np.ndarray, lost: np.ndarray, terms: list) -> list:
        """Per termination row, the write that puts its slot's
        ``pkt_loss`` as of that row: the cell at flush start plus the
        regressions on earlier rows of the slot, a grouped count."""
        if not terms:
            return []
        rows = np.asarray(terms, dtype=np.intp)
        at, span = slot[rows], slot.size + 1
        before = np.sort(slot[lost] * span + lost)
        counts = (np.searchsorted(before, at * span + rows)
                  - np.searchsorted(before, at * span))
        loss = (self._cells[1][at] + counts.astype(np.uint64)) & np.uint64(_M32)
        return [partial(_store, s, self._cells[1:2], (value,))
                for s, value in zip(at.tolist(), loss.tolist())]


class FlightSizeUnit(_Unit):
    """``FlightSizeStage``: the highest sequence sent at the data flow's
    slot; the highest ACK and the last advertised window at the ACK's
    reversed flow.  A running maximum and a last write need no loop."""

    REGISTERS = ("high_seq", "high_ack", "flow_rwnd")

    def run(self, c: SimpleNamespace, ids: SimpleNamespace) -> list:
        """-> write-back."""
        data, acks = _packet_types(c)
        n_data, n_acks = int(np.count_nonzero(data)), int(np.count_nonzero(acks))
        self._tally(n_data, n_acks, n_acks)
        high_seq, high_ack, rwnd = self._cells
        writes = []
        if n_data:
            writes.append(_running_max(high_seq, ids.slot[data],
                                       (c.seq[data] + c.plen[data]) & _M32))
        if n_acks:
            rslots = ids.rslot[acks]
            writes.append(_running_max(high_ack, rslots, c.ack[acks]))
            writes.append(_last_write(rwnd, rslots, c.window[acks] & _M32))
        return writes


class QueueMonitorUnit(_Unit):
    """``QueueMonitorStage``: pair each egress copy with its ingress
    copy's stashed timestamp; per-flow delay, peak and CE marks,
    ``qdepth_hist`` and time-window observations of the matched pairs.
    Out: the matched egress rows and their delays."""

    REGISTERS = ("stash_ts", "stash_sig", "flow_qdelay", "flow_qdelay_max",
                 "flow_ce")

    def run(self, c: SimpleNamespace, ids: SimpleNamespace):
        """-> (write-back, matched egress rows, their delays)."""
        stage = self.stage
        puts = c.port == 0
        now = self._now(c.ts)
        rows, stored, evictions, mismatched, stash_write = _stash_join(
            self._cells[:2], self.config.queue_stash_size, ids.qsig, puts, now)
        delay = (now[rows] - stored) & np.uint64(self.ts_mask)
        pairs, ingress = rows.size, int(np.count_nonzero(puts))
        misses = c.n - ingress - pairs
        stage.pairs_matched += pairs
        stage.pairs_missed += misses
        stage.stash_evictions += evictions
        ce = c.ecn[rows] == 3
        self._tally(2 * ingress + 2 * pairs + misses,    # q_stash_ts
                    ingress + 2 * pairs + mismatched,    # q_stash_sig
                    pairs, pairs,                        # flow_qdelay(_max)
                    int(np.count_nonzero(ce)))           # flow_ce_marks
        writes = [stash_write]
        if not pairs:
            return writes, rows, delay
        qdelay, qdelay_max, flow_ce = self._cells[2:]
        slots = ids.slot[rows]
        writes.append(_last_write(qdelay, slots, delay))
        writes.append(_running_max(qdelay_max, slots, delay))
        if ce.any():
            writes.append(_grouped_add(flow_ce, slots[ce], _M32))
        if stage.qdepth_hist is not None:
            writes.append(partial(_observe, stage.qdepth_hist,
                                  c.epid[rows] % self.config.monitored_ports,
                                  delay))
        if stage.time_windows is not None:
            # Last-writer signatures and running maxima: the windows take
            # the matched pairs in row order, as the scalar stage does.
            writes.append(partial(_in_order, stage.time_windows.observe,
                                  now[rows].tolist(), ids.fid[rows].tolist(),
                                  c.tlen[rows].tolist(), delay.tolist()))
        return writes, rows, delay


class MicroburstUnit(_Unit):
    """``MicroburstStage``: per-port burst hysteresis over the matched
    egress rows' delays.  Out: microburst digests."""

    REGISTERS = ("state", "start", "peak", "pkt_count")

    def run(self, c: SimpleNamespace, rows: np.ndarray, delay: np.ndarray):
        """-> (write-back, digests).  With the rows sorted by port, a port
        is in a burst after a row iff its last ``delay >= on`` row is
        later than its last ``delay <= off`` row, its flush-start state
        standing before its first row; a burst is then a run of rows, its
        peak and packets grouped reductions over the run."""
        stage, TSM = self.stage, np.uint64(self.ts_mask)
        port, on = c.epid[rows] % stage.ports, delay >= stage.on_threshold_ns
        held = self._cells[0][port] != 0
        if not (on.any() or held.any()):  # no burst opens or is open: rows read mb_state
            self._tally(rows.size, 0, 0, 0)
            return [], []
        order, port, first = _sorted_by(port, stage.ports)
        d, ts, on, held = delay[order], c.ts[rows[order]].astype(np.uint64), on[order], held[order]
        off = d <= stage.off_threshold_ns
        files = [cells[:stage.ports].copy() for cells in self._cells]
        last = np.maximum.accumulate(np.where(on | off | first, np.arange(rows.size), -1))
        after = np.where(on | off, on, held)[last]
        before = np.where(first, held, np.roll(after, 1))
        opens, ends = on & ~before, off & before
        edges = int(np.count_nonzero(opens | ends))
        self._tally(rows.size + edges, edges,  # mb_state, mb_start
                    *[edges + int(np.count_nonzero(before))] * 2)  # mb_peak, mb_pkts
        run = np.flatnonzero(before | after)  # not empty: a row opens or is in a burst
        # Bursts: runs of in-burst rows, each from the row that opens it
        # (or a port's first row, carrying a burst open at flush start)
        # to its last row; a carried burst continues its registers.
        begin = np.flatnonzero((opens | first)[run])
        at, close = run[begin], run[np.append(begin[1:], run.size) - 1]
        burst_port, carried = port[at], ~opens[at]
        kept = [np.where(carried, cells[burst_port], 0) for cells in files[1:]]
        start = np.where(carried, kept[0], np.where(d[at] < ts[at], ts[at] - d[at], 0) & TSM)
        peak = np.maximum(kept[1], np.maximum.reduceat(d[run], begin))
        pkts = (kept[2] + np.diff(begin, append=run.size).astype(np.uint64)) & np.uint64(_M32)
        tail, newest = np.append(first[1:], True), np.append(burst_port[1:] != burst_port[:-1], True)
        files[0][port[tail]] = after[tail]
        for cells, values in zip(files[1:], (start, peak, pkts)):  # a port's last burst
            cells[burst_port[newest]] = values[newest]
        done = np.flatnonzero(ends[close])
        stage.bursts_detected += done.size
        digests = [(i, stage.digest, dict(
            start_ns=t - span, duration_ns=span, peak_queue_delay_ns=top, packets=n,
            port_id=p)) for i, t, span, top, n, p in zip(
                rows[order[close[done]]].tolist(), ts[close[done]].tolist(),
                ((ts[close[done]] - start[done]) & TSM).tolist(), peak[done].tolist(),
                pkts[done].tolist(), burst_port[done].tolist())]
        return [partial(_store, slice(stage.ports), self._cells, files)], digests


class BatchKernel:
    """Columnar replay engine bound to one :class:`P4Monitor`."""

    #: Copies buffered before an append forces a flush.  Sized for
    #: memory: the transient columns scale with it, and flushes twice as
    #: large were not measurably faster.
    BUFFER_CAP = 4096
    #: The packer appenders call, reached through the kernel they feed
    #: (``repro.netsim`` cannot import ``repro.core``).
    record = staticmethod(record)

    def __init__(self, monitor) -> None:
        config = monitor.config
        #: Intake: one :data:`RECORD` per copy, packed by :func:`record`.
        #: The monitor's batched sink and the TAP's fast mirror path
        #: append to it and flush once ``len(buf) >= buf_limit``.
        self.buf = bytearray()
        self.buf_limit = self.BUFFER_CAP * RECORD.size
        self.monitor = monitor
        self.hash_geometry = (config.cms_width, config.cms_depth,
                              config.flow_slots - 1)
        self.units = (FlowTableUnit(monitor.flow_table, config),
                      RttLossUnit(monitor.rtt_loss, config),
                      FlightSizeUnit(monitor.flight, config),
                      QueueMonitorUnit(monitor.queue, config),
                      MicroburstUnit(monitor.microburst, config))

    @property
    def pending(self) -> int:
        """Copies buffered since the last flush."""
        return len(self.buf) // RECORD.size

    def flush(self) -> None:
        copies = len(self.buf) // RECORD.size
        if copies == 0:
            return
        t0_ns = time.perf_counter_ns()
        c = header_columns(self.buf, copies)
        self.monitor.copies_ingress += copies - c.egress
        self.monitor.copies_egress += c.egress
        parser = self.monitor.pipeline.parser
        parser.accepted += c.n
        parser.rejected += copies - c.n
        if c.n:
            ids = hash_lanes(c, *self.hash_geometry)
            flow_table, rtt_loss, flight, queue, microburst = self.units
            writes, digests, terms = flow_table.run(c, ids)
            rtt_writes, syncs = rtt_loss.run(c, ids, terms)
            writes += rtt_writes + flight.run(c, ids)
            q_writes, matched, delays = queue.run(c, ids)
            mb_writes, mb_digests = microburst.run(c, matched, delays)
            self._emit(sorted(digests + mb_digests, key=itemgetter(0)), syncs)
            for write in writes + q_writes + mb_writes:
                write()
        self.monitor.pipeline.account_batch(copies, copies - c.n, t0_ns,
                                            time.perf_counter_ns())

    def _emit(self, digests: list, syncs: list) -> None:
        """Emit in row order; before each termination, put the flow's
        ``pkt_loss`` as of that row, which the control plane reads as
        the digest arrives."""
        termination = self.units[0].stage.termination_digest
        syncs = iter(syncs)
        for _, digest, payload in digests:
            if digest is termination:
                next(syncs)()
            digest.emit(**payload)
