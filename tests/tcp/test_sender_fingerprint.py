"""Golden fingerprints of the TCP sender and ACK path.

Each scenario below is a small seeded transfer through a two-hop path
(client host -> switch -> server host, the switch port toward the
server being the bottleneck).  Together they reach every branch of the
sender: fast retransmit and SACK hole filling under CUBIC and Reno,
NewReno partial ACKs with SACK off, RTO go-back-N after a link flap
(also over sub-MSS segments), a lost SYN-ACK, the sender-side
silly-window floor, application and fq-style pacing (and none), ECN
reactions, reordering, delayed ACKs and their timer, BBR's model
pacing and FIN teardown.

A fingerprint is a sha256 over what the run did: every packet each
host received (arrival time and header), events dispatched, the event
queue's high-water mark, every port's transmissions, drops and CE
marks, the receiver's delivered bytes and every connection's
``ConnectionStats``.  A change to the TCP stack or the hop it rides
that keeps these hashes is byte-identical in behaviour; one that moves
them has changed what the simulator does, and re-records them with the
reason in its commit message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.netem import FlapImpairment, LossImpairment, ReorderImpairment
from repro.netsim.switch import LegacySwitch
from repro.netsim.units import mbps, millis, seconds
from repro.tcp.stack import INFINITE_DATA, TcpHostStack

MSS = 1448
PORT = 5201

STATS_FIELDS = ("start_ns", "established_ns", "end_ns", "segments_sent",
                "bytes_sent", "bytes_acked", "retransmissions", "rto_events",
                "fast_retransmits", "ecn_reactions", "ce_received",
                "rtt_samples")


@dataclass(frozen=True)
class Case:
    cc: Tuple[str, ...] = ("cubic",)      # one client connection per entry
    nbytes: Optional[int] = 400_000       # None: stream until close_ms
    chunk: int = 0                        # > 0: write nbytes this much per ms
    close_ms: int = 0
    bottleneck_mbps: float = 20.0
    queue_bytes: int = 60_000             # switch port toward the server
    loss: Optional[Tuple[float, int]] = None    # (rate, seed)
    loss_acks: bool = False               # loss hits ACKs and FINs too
    flap_ms: Optional[Tuple[int, int]] = None   # (start, duration)
    reorder: Optional[Tuple[float, int, int]] = None  # (share, extra ms, seed)
    sack: bool = True
    rcv_buf: int = 4 * 1024 * 1024
    pacing_mbps: Optional[float] = None
    auto_pacing: bool = True
    ecn_threshold: Optional[int] = None
    delayed_ack: bool = False
    run_s: float = 6.0


CASES = {
    # Two flows into a shallow queue plus random loss: tail drops and
    # netem drops, fast retransmit, SACK holes, partial ACKs, FIN.
    "cubic_loss": Case(cc=("cubic", "cubic"), loss=(0.01, 3)),
    "reno_loss": Case(cc=("reno",), loss=(0.02, 5)),
    # NewReno: no scoreboard, recovery inflation, partial-ACK rtx.
    "newreno": Case(cc=("cubic",), loss=(0.02, 7), sack=False),
    # The bottleneck link drops everything for 400 ms: RTO, backoff,
    # go-back-N over a SACK scoreboard.
    "rto_flap": Case(cc=("cubic",), nbytes=600_000, flap_ms=(120, 400)),
    # Heavy loss on every packet: repeated RTOs, exponential backoff,
    # lost ACKs and FINs.
    "rto_heavy": Case(cc=("reno",), nbytes=80_000, loss=(0.15, 9),
                      loss_acks=True, run_s=60.0),
    # The SYN passes, the SYN-ACK is lost: SYN RTO, duplicate SYN.
    "synack_lost": Case(nbytes=50_000, flap_ms=(5, 50)),
    # Reordering both ways: stale ACKs below snd_una, receiver OOO.
    "reorder": Case(reorder=(0.05, 3, 4)),
    # Receiver window below one MSS: sub-MSS segments at the SWS floor.
    "sws_floor": Case(nbytes=30_000, rcv_buf=1000),
    # A window of 1.7 MSS: the sub-MSS remainder waits on the floor.
    "sws_partial": Case(nbytes=60_000, rcv_buf=2500, loss=(0.05, 2)),
    # Application pacing in stream mode, closed mid-stream.
    "app_pacing": Case(nbytes=None, close_ms=400, pacing_mbps=5.0),
    # Line-rate bursts into the shallow queue.
    "no_pacing": Case(cc=("cubic", "reno"), auto_pacing=False),
    "ecn": Case(nbytes=None, close_ms=600, queue_bytes=120_000,
                ecn_threshold=30_000),
    "delayed_ack": Case(loss=(0.02, 8), delayed_ack=True),
    # One segment per 58 ms: every delayed ACK leaves on its timer.
    "delack_timeout": Case(nbytes=20_000, pacing_mbps=0.2, delayed_ack=True),
    "bbr": Case(cc=("bbr",), nbytes=None, close_ms=800),
    # An application writing 700 B per ms: sub-MSS segments, so the RTO
    # rewind meets SACKed ranges that do not start on a segment edge.
    "small_writes": Case(nbytes=200_000, chunk=700, loss=(0.15, 6),
                         flap_ms=(150, 300), run_s=30.0),
}

GOLDEN = {
    "app_pacing":
        "edb2b21178c4f6d8549d751f950135f02e28df72440dabb3857ca06bd1a9d35a",
    "bbr":
        "0ff64965b2a31756839396c0b0fe725ee1ba1a2e82bd8450303967ecbd243058",
    "cubic_loss":
        "a9937cb694f0a0b266a5b5077ef9a3ea24c24947225bdf4e1086ae7869c01e39",
    "delack_timeout":
        "11f19bc12fe5e2a1839403331f76e288d09b8aedffa1a0ffca40da566c2f2469",
    "delayed_ack":
        "76c8c7cafa9ce0c8a9cd54f9e88b039baebdd49e14889c79d5db627a09732591",
    "ecn":
        "48c6c8f4f51d9e77b68d9c1edec77672397600760a4d65034ffb9e99c0232bae",
    "newreno":
        "9ccd1eeddbe0379a89db5da393108b05d6ab43c1b4ba1d0d37c2e589befc3f37",
    "no_pacing":
        "9b4c2a42ba1daae4fd37a2659706f6e6332112875fe292ceb94b5549c3a095a0",
    "reno_loss":
        "c95c08d7916834dfd5afa0aeda5b32c540e45b8c9dd86323756b7d0bad163253",
    "reorder":
        "0667ba97d8af3eecddf6e39601ec6995b48bdd21d2f1e2f0164d8f2d1657b7f6",
    "rto_flap":
        "1038d80ee3caa8e31f3bead402f27d4254da2f8785d16a9c04d48de8cc2a6c63",
    "rto_heavy":
        "5f35cd188b830b6747693ec9f2583c0001551a141f0b8a6ad17930b9fb6ed2dc",
    "small_writes":
        "c87b67053dd4f4014d4d3488d2a348cd5596f70f20e50a6c2d8f91160f13c6b2",
    "sws_floor":
        "d82b3c9e600f80cb78658f299ded8dc287d3940dc462b28f687a2877c94222aa",
    "sws_partial":
        "945e1ed813ea9dd36b6571174c9cc14d88bb4578c2517ef416735467e0360e07",
    "synack_lost":
        "4bc5d5e671ba79dea63264fbe0a9f664e698b58d2c91ba37528f22c7bd800177",
}


def write_chunks(sim, conn, chunk: int, left: int) -> None:
    conn.write(min(chunk, left))
    if left > chunk:
        sim.after(millis(1), write_chunks, sim, conn, chunk, left - chunk)
    else:
        conn.close()


def run_case(case: Case):
    """Build the path, run the transfers; -> (fingerprint document, the
    client connections, the server-side connections)."""
    sim = Simulator()
    client = Host(sim, "client", "10.0.0.1")
    server = Host(sim, "server", "10.0.0.2")
    switch = LegacySwitch(sim, "switch")
    connect(sim, client, switch, mbps(100), millis(2))
    bottleneck = connect(sim, switch, server, mbps(case.bottleneck_mbps),
                         millis(8), queue_bytes_a=case.queue_bytes)
    switch.add_route(client.ip, switch.ports[0])
    switch.add_route(server.ip, switch.ports[1])
    if case.loss is not None:
        bottleneck.impairments.append(
            LossImpairment(case.loss[0], seed=case.loss[1],
                           data_only=not case.loss_acks))
    if case.flap_ms is not None:
        start, duration = case.flap_ms
        bottleneck.impairments.append(
            FlapImpairment(sim, millis(start), millis(duration)))
    if case.reorder is not None:
        share, extra_ms, seed = case.reorder
        bottleneck.impairments.append(
            ReorderImpairment(share, millis(extra_ms), seed=seed))
    if case.ecn_threshold is not None:
        switch.ports[1].ecn_threshold_bytes = case.ecn_threshold

    wire = hashlib.sha256()
    for host in (client, server):
        def seen(pkt, now, tag=host.name.encode()):
            wire.update(tag + repr((
                now, pkt.src_port, pkt.dst_port, pkt.seq, pkt.ack, pkt.flags,
                pkt.window, pkt.payload_len, pkt.ecn, pkt.sack, pkt.ip_id,
                pkt.wire_len, pkt.created_ns)).encode())
        host.rx_hooks.append(seen)

    cstack = TcpHostStack(sim, client, default_mss=MSS)
    sstack = TcpHostStack(sim, server, default_mss=MSS)
    accepted = []
    delivered = []

    def on_accept(conn):
        accepted.append(conn)
        delivered.append(0)
        index = len(delivered) - 1

        def on_receive(_conn, nbytes):
            delivered[index] += nbytes
        conn.on_receive.append(on_receive)

    sstack.listen(PORT, rcv_buf_bytes=case.rcv_buf, on_accept=on_accept,
                  delayed_ack=case.delayed_ack,
                  ecn_enabled=case.ecn_threshold is not None)
    conns = []
    for cc in case.cc:
        conn = cstack.open_connection(
            server.ip, PORT, cc=cc, sack_enabled=case.sack,
            ecn_enabled=case.ecn_threshold is not None,
            pacing_bps=(mbps(case.pacing_mbps)
                        if case.pacing_mbps is not None else None))
        conn.auto_pacing = case.auto_pacing
        if case.chunk:
            conn.on_established.append(
                lambda c: write_chunks(sim, c, case.chunk, case.nbytes))
        elif case.nbytes is not None:
            conn.on_established.append(
                lambda c, n=case.nbytes: (c.write(n), c.close()))
        else:
            conn.on_established.append(lambda c: c.write(INFINITE_DATA))
            sim.after(millis(case.close_ms), conn.close)
        conn.connect()
        conns.append(conn)
    sim.run_until(seconds(case.run_s))

    doc = {
        "wire": wire.hexdigest(),
        "events": sim.events_run,
        "queue_hwm": sim.queue_hwm,
        "ports": [(p.name, p.tx_packets, p.drops, p.ce_marked)
                  for node in (client, switch, server) for p in node.ports],
        "received": [c.bytes_received for c in accepted],
        "delivered": delivered,
        "stats": [[getattr(c.stats, f) for f in STATS_FIELDS]
                  for c in conns + accepted],
    }
    return doc, conns, accepted


def fingerprint(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sender_fingerprint(name):
    doc, conns, accepted = run_case(CASES[name])
    if CASES[name].nbytes is not None:
        assert doc["received"] == [CASES[name].nbytes] * len(conns)
    assert fingerprint(doc) == GOLDEN[name], doc
