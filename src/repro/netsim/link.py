"""Ports and links.

A :class:`Port` models a transmit interface: a tail-drop FIFO byte queue
plus a serialiser running at the port rate.  A :class:`Link` joins two
ports with a propagation delay and an optional chain of impairments
(loss/extra delay, see :mod:`repro.netsim.netem`).

A departure event exists only where something needs that instant: an
egress mirror, a link impairment, the tracer, or a packet waiting behind
the one on the wire.  Otherwise a hop is one heap entry: the far node's
``receive`` at ``now + tx + delay``, with ``free_at = now + tx`` kept.
The live ``egress_mirrors`` / ``link.impairments`` / ``_trace`` are read
as each packet starts; one attached mid-packet sees the next packet.
Invariant: ``_queue`` non-empty ⇒ a ``_tx_done`` is pending, and a
pending ``_tx_done`` ⇒ the port is busy, even at ``now == free_at``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Node

MirrorFn = Callable[[Packet, int], None]  # (packet, timestamp_ns)


class Port:
    """A transmit port with a tail-drop FIFO queue.

    ``queue_bytes`` bounds the *waiting* bytes (the packet in transmission
    is not counted), which is how shallow-buffer switches behave and what
    makes the Fig. 11 small-buffer experiment meaningful.

    ``tx_packets`` / ``tx_bytes`` mean "left the port by ``sim.now``": an
    unobserved packet is counted at its start and settled on read.
    """

    __slots__ = (
        "sim",
        "owner",
        "name",
        "rate_bps",
        "queue_limit_bytes",
        "link",
        "peer",
        "_queue",
        "queued_bytes",
        "free_at", "_wire_len", "_pending",
        "drops",
        "_tx_packets", "_tx_bytes",
        "egress_mirrors",
        "drop_hooks",
        "ecn_threshold_bytes",
        "ce_marked",
        "_trace",
    )

    def __init__(
        self,
        sim: Simulator,
        owner: "Node",
        rate_bps: int,
        queue_limit_bytes: int = 16 * 1024 * 1024,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"port rate must be positive, got {rate_bps}")
        if queue_limit_bytes < 0:
            raise ValueError("queue limit cannot be negative")
        self.sim = sim
        self.owner = owner
        self.name = name or f"{owner.name}.p{len(owner.ports)}"
        self.rate_bps = rate_bps
        self.queue_limit_bytes = queue_limit_bytes
        self.link: Optional["Link"] = None
        self.peer: Optional["Port"] = None  # far-end port, set by Link
        self._queue: deque[Packet] = deque()
        self.queued_bytes = 0
        self.free_at = 0       # when the unobserved packet on the wire,
        self._wire_len = 0     # this long, will have left
        self._pending = False  # a _tx_done is scheduled
        self.drops = 0
        self._tx_packets = 0
        self._tx_bytes = 0
        self.egress_mirrors: List[MirrorFn] = []
        self.drop_hooks: List[Callable[[Packet], None]] = []
        # ECN (RFC 3168): when set, ECT packets enqueued beyond this many
        # waiting bytes are marked CE instead of waiting for a tail drop.
        self.ecn_threshold_bytes: Optional[int] = None
        self.ce_marked = 0
        self._trace = sim.trace

    # -- data path ----------------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Enqueue ``pkt`` for transmission.  Returns False on tail drop."""
        if self.link is None:
            raise RuntimeError(f"port {self.name} is not connected to a link")
        sim = self.sim
        if self._pending or self.free_at > sim.now:
            if self.queued_bytes + pkt.wire_len > self.queue_limit_bytes:
                self.drops += 1
                if self._trace is not None:
                    self._record("drop", pkt)
                for hook in self.drop_hooks:
                    hook(pkt)
                return False
            if (
                self.ecn_threshold_bytes is not None
                and self.queued_bytes >= self.ecn_threshold_bytes
                and pkt.ecn in (Packet.ECN_ECT0, Packet.ECN_ECT1)
            ):
                pkt.ecn = Packet.ECN_CE
                self.ce_marked += 1
            self._queue.append(pkt)
            self.queued_bytes += pkt.wire_len
            if self._trace is not None:
                self._record("enqueue", pkt)
            if not self._pending:
                # The unobserved packet on the wire got a successor: its
                # departure instant is needed after all.
                self._pending = True
                sim.post(self.free_at, self._tx_done, None)
            return True
        self._transmit(pkt)
        return True

    def _transmit(self, pkt: Packet) -> None:
        sim = self.sim
        link = self.link
        wire_len = pkt.wire_len
        # Inlined tx_time_ns (ceil division): rounding up guarantees a
        # busy port never emits more than rate_bps.
        done = sim.now - (-wire_len * 8_000_000_000 // self.rate_bps)
        # Inlined sim.post: the simulator's hottest path.
        if self.egress_mirrors or link.impairments or self._trace is not None:
            # Observed: somebody consumes the departure instant.
            self._pending = True
            heappush(sim._heap,
                     (done, next(sim._seq), self._tx_done, (pkt,), None))
        else:
            # Unobserved: the hop is one event, the far node's receive.
            self.free_at = done
            self._wire_len = wire_len
            self._tx_packets += 1
            self._tx_bytes += wire_len
            peer = self.peer
            heappush(sim._heap, (done + link.delay_ns, next(sim._seq),
                                 peer.owner.receive, (pkt, peer), None))
            if self._queue:
                self._pending = True
                sim.post(done, self._tx_done, None)
        if len(sim._heap) > sim.queue_hwm:
            sim.queue_hwm = len(sim._heap)

    def _tx_done(self, pkt: Optional[Packet]) -> None:
        """A needed departure instant: the observed ``pkt``'s last bit
        leaves now, or (None) only the next queued packet starts."""
        if pkt is not None:
            self._tx_packets += 1
            self._tx_bytes += pkt.wire_len
            now = self.sim.now
            if self._trace is not None:
                self._record("dequeue", pkt)
            # Egress TAP point: the moment the last bit leaves the switch.
            for mirror in self.egress_mirrors:
                mirror(pkt, now)
            self.link.deliver(pkt, self)
        self._pending = False
        if self._queue:
            nxt = self._queue.popleft()
            self.queued_bytes -= nxt.wire_len
            self._transmit(nxt)

    def _record(self, what: str, pkt: Packet) -> None:
        if self._trace.wants(pkt):
            self._trace.packet_event(
                "netsim", what, self.name, pkt, self.sim.now,
                queued_bytes=self.queued_bytes, queue_pkts=len(self._queue))

    # -- introspection ------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._pending or self.free_at > self.sim.now

    @property
    def tx_packets(self) -> int:
        return self._tx_packets - (self.free_at > self.sim.now)

    @property
    def tx_bytes(self) -> int:
        return self._tx_bytes - (self.free_at > self.sim.now) * self._wire_len


class Link:
    """Bidirectional point-to-point link: propagation delay + impairments.

    Serialisation is modelled in the :class:`Port`; the link only carries
    bits through space, so two simultaneous transmissions (one per
    direction) never interact — full duplex, like the paper's fibre.
    """

    __slots__ = ("sim", "a", "b", "delay_ns", "impairments",
                 "impairment_drops", "drop_hooks", "name", "_trace")

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        delay_ns: int,
        name: str = "",
    ) -> None:
        if delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        if a.link is not None or b.link is not None:
            raise RuntimeError("port already connected")
        self.sim = sim
        self.a = a
        self.b = b
        self.delay_ns = delay_ns
        self.impairments: list = []
        self.impairment_drops = 0
        # Observers of in-flight losses (netem drops, flaps): called with
        # (packet, sending_port).  Queue tail drops are reported by the
        # Port's own drop_hooks; together the two cover every loss point.
        self.drop_hooks: List[Callable[[Packet, Port], None]] = []
        self.name = name or f"{a.name}<->{b.name}"
        self._trace = sim.trace
        a.link = self
        b.link = self
        a.peer = b
        b.peer = a

    def other(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise ValueError(f"port {port.name} is not on link {self.name}")

    def deliver(self, pkt: Packet, from_port: Port) -> None:
        """Carry ``pkt`` to the far end after ``delay_ns`` (+impairments)."""
        delay = self.delay_ns
        for imp in self.impairments:
            verdict = imp.process(pkt)
            if verdict is None:  # dropped by the impairment
                self.impairment_drops += 1
                if self._trace is not None and self._trace.wants(pkt):
                    self._trace.packet_event(
                        "netsim", "drop", self.name, pkt, self.sim.now,
                        cause="impairment")
                for hook in self.drop_hooks:
                    hook(pkt, from_port)
                return
            delay += verdict
        peer = from_port.peer
        self.sim.post_after(delay, peer.owner.receive, pkt, peer)


def connect(
    sim: Simulator,
    node_a: "Node",
    node_b: "Node",
    rate_bps: int,
    delay_ns: int,
    queue_bytes_a: int = 16 * 1024 * 1024,
    queue_bytes_b: int = 16 * 1024 * 1024,
    name: str = "",
) -> Link:
    """Create a port on each node and join them with a link.

    ``rate_bps`` applies to both directions (symmetric link); per-direction
    queue limits allow an output-queued switch port to be shallow while the
    far-end host NIC stays deep.
    """
    pa = node_a.new_port(rate_bps, queue_bytes_a)
    pb = node_b.new_port(rate_bps, queue_bytes_b)
    return Link(sim, pa, pb, delay_ns, name=name)
