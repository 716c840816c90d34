"""Ports and links: serialisation timing, queues, tail drop, duplex —
and the lazy-departure port held against the two-event port it replaced."""

import itertools
import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import Link, Port, connect
from repro.netsim.netem import DelayImpairment, LossImpairment
from repro.netsim.packet import FiveTuple, Packet, make_data_packet
from repro.netsim.units import gbps, mbps, tx_time_ns


class SinkStack:
    def __init__(self):
        self.packets = []

    def deliver(self, pkt):
        self.packets.append(pkt)


def make_pair(sim, rate=mbps(100), delay=1_000_000, qa=10**7, qb=10**7):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = connect(sim, a, b, rate, delay, queue_bytes_a=qa, queue_bytes_b=qb)
    sink = SinkStack()
    b.set_stack(sink)
    return a, b, link, sink


def ft(a, b):
    return FiveTuple(a.ip, b.ip, 1000, 2000)


def test_delivery_time_is_tx_plus_propagation(sim):
    a, b, link, sink = make_pair(sim)
    pkt = make_data_packet(ft(a, b), seq=0, payload_len=1000)
    a.send(pkt)
    sim.run()
    expected = tx_time_ns(pkt.wire_len, mbps(100)) + 1_000_000
    assert b.rx_packets == 1
    assert sim.now == expected


def test_back_to_back_packets_serialise(sim):
    a, b, link, sink = make_pair(sim)
    p1 = make_data_packet(ft(a, b), seq=0, payload_len=1000)
    p2 = make_data_packet(ft(a, b), seq=1000, payload_len=1000)
    a.send(p1)
    a.send(p2)
    sim.run()
    tx = tx_time_ns(p1.wire_len, mbps(100))
    assert sim.now == 2 * tx + 1_000_000  # second waits for the first


def test_tail_drop_when_queue_full(sim):
    # Queue fits exactly one waiting packet.
    a, b, link, sink = make_pair(sim, qa=1100)
    pkts = [make_data_packet(ft(a, b), seq=i, payload_len=1000) for i in range(3)]
    assert a.send(pkts[0])   # goes straight to the wire
    assert a.send(pkts[1])   # queued
    assert not a.send(pkts[2])  # dropped
    sim.run()
    assert b.rx_packets == 2
    assert a.port().drops == 1


def test_drop_hook_fires(sim):
    a, b, link, sink = make_pair(sim, qa=0)
    dropped = []
    a.port().drop_hooks.append(dropped.append)
    a.send(make_data_packet(ft(a, b), seq=0, payload_len=100))
    a.send(make_data_packet(ft(a, b), seq=1, payload_len=100))
    assert len(dropped) == 1


def test_full_duplex_no_interaction(sim):
    a, b, link, sink = make_pair(sim)
    sink_a = SinkStack()
    a.set_stack(sink_a)
    a.send(make_data_packet(ft(a, b), seq=0, payload_len=1000))
    b.send(make_data_packet(ft(b, a), seq=0, payload_len=1000))
    sim.run()
    expected = tx_time_ns(1054, mbps(100)) + 1_000_000
    assert sim.now == expected  # both directions finished simultaneously


def test_egress_mirror_sees_departure_time(sim):
    a, b, link, sink = make_pair(sim)
    mirrored = []
    a.port().egress_mirrors.append(lambda pkt, ts: mirrored.append(ts))
    pkt = make_data_packet(ft(a, b), seq=0, payload_len=1000)
    a.send(pkt)
    sim.run()
    assert mirrored == [tx_time_ns(pkt.wire_len, mbps(100))]


def test_tx_counters(sim):
    a, b, link, sink = make_pair(sim)
    pkt = make_data_packet(ft(a, b), seq=0, payload_len=500)
    a.send(pkt)
    sim.run()
    assert a.port().tx_packets == 1
    assert a.port().tx_bytes == pkt.wire_len
    assert len(sink.packets) == 1


def test_send_unconnected_port_raises(sim):
    host = Host(sim, "x", "10.0.0.9")
    host.new_port(mbps(10))
    with pytest.raises(RuntimeError):
        host.send(make_data_packet(FiveTuple(host.ip, 1, 1, 1), seq=0, payload_len=10))


def test_port_cannot_join_two_links(sim):
    a, b, link, sink = make_pair(sim)
    c = Host(sim, "c", "10.0.0.3")
    pc = c.new_port(mbps(10))
    with pytest.raises(RuntimeError):
        Link(sim, a.port(), pc, 0)


def test_link_other_rejects_foreign_port(sim):
    a, b, link, sink = make_pair(sim)
    c = Host(sim, "c", "10.0.0.3")
    pc = c.new_port(mbps(10))
    with pytest.raises(ValueError):
        link.other(pc)


def test_misdelivered_packet_counted(sim):
    a, b, link, sink = make_pair(sim)
    stray = make_data_packet(FiveTuple(a.ip, 0x01020304, 1, 2), seq=0, payload_len=10)
    a.send(stray)
    sim.run()
    assert b.misdelivered == 1
    assert sink.packets == []


def test_queue_depth_accounting(sim):
    a, b, link, sink = make_pair(sim, qa=10**7)
    for i in range(5):
        a.send(make_data_packet(ft(a, b), seq=i, payload_len=1000))
    port = a.port()
    assert len(port._queue) == 4  # one in flight
    assert port.queued_bytes == 4 * 1054
    sim.run()
    assert len(port._queue) == 0
    assert port.queued_bytes == 0


def test_bad_port_parameters_rejected(sim):
    host = Host(sim, "h", "10.0.0.4")
    with pytest.raises(ValueError):
        host.new_port(0)
    with pytest.raises(ValueError):
        host.new_port(100, queue_limit_bytes=-1)


def test_negative_link_delay_rejected(sim):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    with pytest.raises(ValueError):
        connect(sim, a, b, mbps(10), -5)


# -- event budget: a count, not a clock --------------------------------------


def test_event_budget_per_hop(sim):
    a, b, link, sink = make_pair(sim)
    pkts = [make_data_packet(ft(a, b), seq=i, payload_len=1000) for i in range(4)]
    a.send(pkts[0])
    sim.run()
    assert sim.events_run == 1       # idle, unobserved: the arrival only
    a.send(pkts[1])
    a.send(pkts[2])
    sim.run()
    assert sim.events_run == 1 + 1 + 2   # the queued one adds its start
    a.port().egress_mirrors.append(lambda pkt, ts: None)
    a.send(pkts[3])
    sim.run()
    assert sim.events_run == 4 + 2   # tapped: departure and arrival
    assert len(sink.packets) == 4


# -- reference model ---------------------------------------------------------


class TwoEventPort(Port):
    """The port as it was before departures became lazy: every packet pays
    a ``_tx_done`` and an arrival event, and ``busy`` is a stored flag."""

    __slots__ = ("busy",)

    def __init__(self, *args):
        super().__init__(*args)
        self.busy = False

    def send(self, pkt):
        if not self.busy:
            self._transmit(pkt)
            return True
        if self.queued_bytes + pkt.wire_len > self.queue_limit_bytes:
            self.drops += 1
            for hook in self.drop_hooks:
                hook(pkt)
            return False
        if (self.ecn_threshold_bytes is not None
                and self.queued_bytes >= self.ecn_threshold_bytes
                and pkt.ecn in (Packet.ECN_ECT0, Packet.ECN_ECT1)):
            pkt.ecn = Packet.ECN_CE
            self.ce_marked += 1
        self._queue.append(pkt)
        self.queued_bytes += pkt.wire_len
        return True

    def _transmit(self, pkt):
        self.busy = True
        self.sim.post_after(tx_time_ns(pkt.wire_len, self.rate_bps),
                            self._tx_done, pkt)

    def _tx_done(self, pkt):
        self._tx_packets += 1
        self._tx_bytes += pkt.wire_len
        for mirror in self.egress_mirrors:
            mirror(pkt, self.sim.now)
        self.link.deliver(pkt, self)
        if self._queue:
            nxt = self._queue.popleft()
            self.queued_bytes -= nxt.wire_len
            self._transmit(nxt)
        else:
            self.busy = False


RATE, SLOW_RATE, DELAY = gbps(1), mbps(400), 50_000   # 8 and 20 ns per byte
QUEUE_LIMIT, ECN_THRESHOLD = 6_000, 3_000
QUIET = 400_000   # ns; longer than a full queue takes to drain at SLOW_RATE


def lazy_schedule(seed):
    """Operations ``(time_ns, op, arg)`` for one run.  Sends, attachments
    and rate changes land on even nanoseconds, where every departure and
    arrival also falls; probes on odd ones, so that what a probe sees
    never depends on how two same-instant events happen to be ordered."""
    rng = random.Random(seed)
    ops, clock, seqs = [], 1_000, itertools.count()

    def send(at, payload=None):
        payload = payload or rng.choice((46, 500, 1400))
        ops.append((at, "send", (next(seqs), payload, rng.random() < 0.7)))

    def quiet(op=None, arg=None):
        nonlocal clock
        clock += QUIET
        if op:
            ops.append((clock, op, arg))
            clock += QUIET

    def traffic(mid_op=None):
        """Idle arrivals and bursts; the long ones overflow the queue and
        cross the ECN threshold.  ``mid_op`` lands inside a backlog."""
        nonlocal clock
        for _ in range(rng.randrange(4, 9)):
            for _ in range(rng.choice((1, 1, 2, 5, 14))):
                send(clock)
                clock += 2 * rng.randrange(0, 4_000)
            clock += 2 * rng.randrange(0, 30_000)
        if mid_op:
            for _ in range(6):
                send(clock, 1400)
            ops.append((clock + 2 * rng.randrange(1, 20_000), mid_op, None))

    def at_free_at():
        """An arrival at exactly the instant the wire falls free, alone
        and with a packet already waiting."""
        nonlocal clock
        quiet()
        for waiting in (False, True):
            send(clock, 1400)
            if waiting:
                send(clock + 2, 500)
            send(clock + tx_time_ns(1454, RATE), 500)
            clock += QUIET

    traffic()
    at_free_at()
    for _ in range(4):                       # a rate change under a backlog
        send(clock, 1400)
    ops.append((clock + 2, "rate", SLOW_RATE))
    traffic()
    quiet("rate", RATE)
    quiet("mirror")
    traffic()
    at_free_at()
    quiet("impair", seed)
    traffic()
    traffic(mid_op="clear")
    traffic(mid_op="unmirror")
    traffic()
    end = clock + QUIET
    ops += [(2 * rng.randrange(end // 2) + 1, "probe", None) for _ in range(300)]
    return sorted(ops, key=lambda op: op[0]), end


class LazyWorld:
    """One sender port of ``port_cls`` into a sink, driven by a schedule."""

    def __init__(self, port_cls, ops, end):
        self.sim = sim = Simulator()
        a, b = Host(sim, "a", "10.0.0.1"), Host(sim, "b", "10.0.0.2")
        self.port = port = port_cls(sim, a, RATE, QUEUE_LIMIT)
        a.ports.append(port)
        self.link = Link(sim, port, b.new_port(RATE), DELAY)
        port.ecn_threshold_bytes = ECN_THRESHOLD
        self.flow = FiveTuple(a.ip, b.ip, 1000, 2000)
        self.arrivals, self.drops, self.mirrored, self.probes = [], [], [], []
        b.rx_hooks.append(
            lambda pkt, ts: self.arrivals.append((pkt.seq, ts, pkt.ecn)))
        port.drop_hooks.append(lambda pkt: self.drops.append(pkt.seq))
        for at, op, arg in ops:
            sim.at(at, getattr(self, op), arg)
        sim.run_until(end)
        assert sim.pending == 0 and not port.busy

    def send(self, arg):
        seq, payload, ect = arg
        pkt = make_data_packet(self.flow, seq=seq, payload_len=payload)
        if ect:
            pkt.ecn = Packet.ECN_ECT0
        self.port.send(pkt)

    def rate(self, rate_bps):
        self.port.rate_bps = rate_bps

    def mirror(self, _):
        self.port.egress_mirrors.append(
            lambda pkt, ts: self.mirrored.append((pkt.seq, ts)))

    def unmirror(self, _):
        self.port.egress_mirrors.clear()

    def impair(self, seed):
        self.link.impairments += [LossImpairment(0.3, seed=seed),
                                  DelayImpairment(4_000, 3_000, seed=seed)]

    def clear(self, _):
        self.link.impairments.clear()

    def probe(self, _):
        port = self.port
        self.probes.append((self.sim.now, port.queued_bytes,
                            len(port._queue), port.busy,
                            port.tx_packets, port.tx_bytes))

    def outcome(self):
        port = self.port
        return {"arrivals": self.arrivals, "drops": self.drops,
                "mirrored": self.mirrored, "probes": self.probes,
                "final": (port.tx_packets, port.tx_bytes, port.drops,
                          port.ce_marked, self.link.impairment_drops)}


@pytest.mark.parametrize("seed", range(12))
def test_lazy_port_matches_two_event_reference(seed):
    ops, end = lazy_schedule(seed)
    ref, new = LazyWorld(TwoEventPort, ops, end), LazyWorld(Port, ops, end)
    want, got = ref.outcome(), new.outcome()
    for stream in want:
        assert got[stream] == want[stream], stream
    # The schedule reached every behaviour it claims to.
    assert want["drops"] and want["mirrored"] and all(want["final"])
    assert {busy for _t, _qb, _qp, busy, *_ in want["probes"]} == {True, False}
    assert new.sim.events_run < ref.sim.events_run


@pytest.mark.parametrize("observed", (False, True))
def test_port_never_serialises_two_packets_at_once(sim, observed):
    """Rate conservation.  A packet reaching the port in the very
    nanosecond a departure is due, and ahead of it in event order, has
    to queue behind the pending ``_tx_done``: testing ``free_at > now``
    alone let it start beside the one on the wire."""
    a, b, link, sink = make_pair(sim, rate=gbps(1))
    port, departures = a.port(), []
    if observed:
        port.egress_mirrors.append(lambda pkt, ts: departures.append((pkt, ts)))
    else:
        b.rx_hooks.append(
            lambda pkt, ts: departures.append((pkt, ts - link.delay_ns)))
    pkts = [make_data_packet(ft(a, b), seq=i, payload_len=1000) for i in range(5)]
    tx = tx_time_ns(pkts[0].wire_len, gbps(1))
    for i, at in enumerate((0, 10, tx, 2 * tx, 3 * tx)):  # pkts[1] waits
        sim.at(at, port.send, pkts[i])
    sim.run()
    assert [pkt for pkt, _ts in departures] == pkts
    gaps = [t1 - t0 for (_p0, t0), (_p1, t1) in zip(departures, departures[1:])]
    assert gaps == [tx] * 4
    assert port.tx_packets == 5
