"""Seeded load generator for the replay workloads.

Builds a time-sorted TAP copy stream without netsim links or TCP: every
data transmission yields an ingress copy, an egress copy 50-100 us later
(the injected queue delay) and, one injected path RTT later, a pure-ACK
ingress copy.  A share of segments is lost downstream of the TAP and
retransmitted after the next segment has left, so the monitor sees a
sequence regression and an ACK that answers the *original* copy's
stash entry (the retransmission ambiguity).  The generator keeps the
exact per-flow truth, so checks need no oracle.

The seed is the only source of randomness; nothing here reads a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.netsim.packet import F_ACK, Packet, ip_to_int
from repro.netsim.tap import MirrorCopy, TapDirection

IP_TCP_HEADERS = 40  # ip_total_len of an option-less segment minus payload


@dataclass
class ReplayFlow:
    """Exact truth for one generated flow (data direction)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    data_ts: np.ndarray      # ingress timestamp of every data transmission, sorted
    regressions: int         # retransmissions (each one a sequence regression)
    acks: int                # pure ACKs generated for this flow
    rtt_ns: np.ndarray       # injected path RTT of every ACKed transmission


@dataclass
class ReplayInput:
    """A generated capture, pre-sliced at the driver's advance cadence."""

    slices: List[Tuple[int, List[MirrorCopy]]]  # (run_until ns, copies before it)
    flows: List[ReplayFlow]
    ip_total_len: int
    copies_ingress: int
    copies_egress: int


def replay_stream(seed: int, flows: int, packets: Tuple[int, int],
                  gap_ns: int, advance_ns: int,
                  payload: int = 1448, regress_share: float = 0.01) -> ReplayInput:
    """``flows`` flows of ``packets`` (lo, hi inclusive) segments each,
    ``gap_ns`` +/-50 % apart, starting uniformly inside the first gap;
    the capture is sliced every ``advance_ns``."""
    rng = np.random.default_rng(seed)
    n = rng.integers(packets[0], packets[1] + 1, size=flows)
    first = np.concatenate(([0], np.cumsum(n)[:-1]))
    total = int(n.sum())
    fi = np.repeat(np.arange(flows), n)
    k = np.arange(total) - first[fi]

    start = rng.integers(0, gap_ns, size=flows)
    base_rtt = rng.integers(10_000_000, 80_000_000, size=flows)
    isn = rng.integers(1, 1 << 31, size=flows)
    gaps = (rng.uniform(0.5, 1.5, size=total) * gap_ns).astype(np.int64)
    run = np.cumsum(gaps)
    t = start[fi] + run - (run[first] - gaps[first])[fi]
    seq = isn[fi] + k * payload

    lost = (rng.random(total) < regress_share) & (k < n[fi] - 1)
    lost_at = np.flatnonzero(lost)
    retx_t = t[lost_at + 1] + (rng.uniform(0.1, 0.4, size=lost_at.size)
                               * gap_ns).astype(np.int64)

    # Transmission table: originals, then retransmissions.
    tx_t = np.concatenate((t, retx_t))
    tx_flow = np.concatenate((fi, fi[lost_at]))
    tx_seq = np.concatenate((seq, seq[lost_at]))
    tx_acked = np.concatenate((~lost, np.ones(lost_at.size, dtype=bool)))
    tx_rtt = (base_rtt[tx_flow]
              * (1.0 + rng.uniform(0.0, 0.1, size=tx_t.size))).astype(np.int64)
    qdelay = rng.integers(50_000, 100_001, size=tx_t.size)
    acked_at = np.flatnonzero(tx_acked)

    ntx = tx_t.size
    ev_ts = np.concatenate((tx_t, tx_t + qdelay, (tx_t + tx_rtt)[acked_at]))
    ev_kind = np.concatenate((np.zeros(ntx, np.int8), np.ones(ntx, np.int8),
                              np.full(acked_at.size, 2, np.int8)))
    ev_tx = np.concatenate((np.arange(ntx), np.arange(ntx), acked_at))
    order = np.argsort(ev_ts, kind="stable")

    src = [ip_to_int("10.1.0.0") + i for i in range(flows)]
    dst = [ip_to_int("10.2.0.0") + i for i in range(flows)]
    sport = [20_000 + i for i in range(flows)]
    dport = 5201

    fast = Packet.tcp_fast
    data_pkts = [
        fast(src[f], dst[f], sport[f], dport, s, 1, F_ACK, 65535, payload, i, ts)
        for i, (f, s, ts) in enumerate(zip(tx_flow.tolist(), tx_seq.tolist(),
                                           tx_t.tolist()))
    ]
    ack_pkts = {}
    for i in acked_at.tolist():
        d = data_pkts[i]
        ack_pkts[i] = fast(d.dst_ip, d.src_ip, dport, d.src_port, 1,
                           d.seq + payload, F_ACK, 65535, 0, i, d.created_ns)

    ingress, egress = TapDirection.INGRESS, TapDirection.EGRESS
    copies: List[MirrorCopy] = []
    append = copies.append
    sorted_ts = ev_ts[order]
    for ts, kind, i in zip(sorted_ts.tolist(), ev_kind[order].tolist(),
                           ev_tx[order].tolist()):
        if kind == 0:
            append(MirrorCopy(data_pkts[i], ingress, ts))
        elif kind == 1:
            append(MirrorCopy(data_pkts[i], egress, ts))
        else:
            append(MirrorCopy(ack_pkts[i], ingress, ts))

    nslices = int(sorted_ts[-1]) // advance_ns + 1
    ends = np.arange(1, nslices + 1) * advance_ns
    cut = np.searchsorted(sorted_ts, ends, side="left").tolist()
    slices = [(int(end), copies[lo:hi])
              for end, lo, hi in zip(ends.tolist(), [0] + cut[:-1], cut)]

    by_flow = np.lexsort((tx_t, tx_flow))
    bounds = np.searchsorted(tx_flow[by_flow], np.arange(flows + 1))
    truth = []
    for f in range(flows):
        mine = by_flow[bounds[f]:bounds[f + 1]]
        truth.append(ReplayFlow(
            src_ip=src[f], dst_ip=dst[f], src_port=sport[f], dst_port=dport,
            data_ts=tx_t[mine],
            regressions=int(mine.size - n[f]),
            acks=int(tx_acked[mine].sum()),
            rtt_ns=tx_rtt[mine][tx_acked[mine]],
        ))
    return ReplayInput(slices=slices, flows=truth,
                       ip_total_len=IP_TCP_HEADERS + payload,
                       copies_ingress=ntx + acked_at.size, copies_egress=ntx)
