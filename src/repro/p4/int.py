"""In-band Network Telemetry (INT) — the related-work baseline.

Bezerra et al. (paper §6) monitor AmLight with INT: every *transit*
switch embeds per-hop metadata (switch id, timestamp, queue depth, hop
latency estimate) into the packets themselves, and a *sink* extracts the
stack and reports it to a collector.

This is the architectural opposite of the paper's passive TAP design:
INT sees every hop's queue from the inside, but it grows every packet by
``Packet.INT_HOP_BYTES`` per hop — overhead carried by the very traffic
being measured.  The ``int_overhead`` ablation/benchmark quantifies that
trade-off against the zero-overhead TAP monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.host import Host, Node
from repro.netsim.link import Port
from repro.netsim.packet import Packet
from repro.netsim.switch import LegacySwitch
from repro.netsim.units import NS_PER_S


@dataclass(frozen=True, slots=True)
class IntHopMetadata:
    """One INT-MD stack entry, as a transit switch writes it."""

    switch_id: int
    ingress_timestamp_ns: int
    queue_depth_bytes: int
    hop_latency_ns: int


class IntTransitSwitch(LegacySwitch):
    """A programmable forwarding switch in INT transit mode: forwards
    like the legacy switch, but pushes an :class:`IntHopMetadata` entry
    onto every payload-carrying packet it forwards.

    The hop-latency field is the queueing estimate available at enqueue
    time (waiting bytes / drain rate) plus the packet's own
    serialisation — what INT-MD's hop-latency reports on real silicon.
    """

    def __init__(self, sim: Simulator, name: str, switch_id: int,
                 int_data_only: bool = True) -> None:
        super().__init__(sim, name)
        self.switch_id = switch_id
        self.int_data_only = int_data_only
        self.int_entries_written = 0

    def receive(self, pkt: Packet, port: Port) -> None:
        self.rx_packets += 1
        now = self.sim.now
        for mirror in self.ingress_mirrors:
            mirror(pkt, now)
        out = self.route_for(pkt.dst_ip)
        if out is None:
            self.no_route_drops += 1
            return
        if not self.int_data_only or pkt.payload_len > 0:
            queue_depth = out.queued_bytes
            hop_latency = (
                (queue_depth + pkt.wire_len) * 8 * NS_PER_S // out.rate_bps
            )
            entry = IntHopMetadata(
                switch_id=self.switch_id,
                ingress_timestamp_ns=now,
                queue_depth_bytes=queue_depth,
                hop_latency_ns=hop_latency,
            )
            if pkt.int_stack is None:
                pkt.int_stack = [entry]
            else:
                pkt.int_stack.append(entry)
            pkt.recompute_wire_len()
            self.int_entries_written += 1
        out.send(pkt)


@dataclass
class IntPostcard:
    """What the sink exports to the collector for one packet."""

    timestamp_ns: int
    flow_key: Tuple[int, int, int, int, int]
    hops: Tuple[IntHopMetadata, ...]

    @property
    def path_latency_ns(self) -> int:
        return sum(h.hop_latency_ns for h in self.hops)


class IntSink:
    """Strips INT stacks at the receiving edge and feeds a collector.

    Attach to the destination host; in hardware this is the last INT
    hop's egress deparser.
    """

    def __init__(self, sim: Simulator, host: Host,
                 collector: Optional["IntCollector"] = None) -> None:
        self.sim = sim
        # Explicit None check: an empty collector is falsy via __len__.
        self.collector = collector if collector is not None else IntCollector()
        host.rx_hooks.append(self._on_packet)

    def _on_packet(self, pkt: Packet, ts_ns: int) -> None:
        if not pkt.int_stack:
            return
        hops = tuple(pkt.int_stack)
        pkt.int_stack = None  # stripped before the application sees it
        pkt.recompute_wire_len()
        self.collector.ingest(IntPostcard(
            timestamp_ns=ts_ns,
            flow_key=(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto),
            hops=hops,
        ))


class IntCollector:
    """Aggregates postcards: per-switch queue-depth series and per-flow
    path latency — the AmLight collector's role."""

    def __init__(self) -> None:
        self.postcards: List[IntPostcard] = []
        self.per_switch_queue: Dict[int, List[Tuple[int, int]]] = {}

    def ingest(self, postcard: IntPostcard) -> None:
        self.postcards.append(postcard)
        for hop in postcard.hops:
            self.per_switch_queue.setdefault(hop.switch_id, []).append(
                (hop.ingress_timestamp_ns, hop.queue_depth_bytes)
            )

    def __len__(self) -> int:
        return len(self.postcards)

    def max_queue_depth(self, switch_id: int) -> int:
        return max((d for _, d in self.per_switch_queue.get(switch_id, [])),
                   default=0)

    def telemetry_overhead_bytes(self) -> int:
        """Extra on-wire bytes this collector's postcards cost."""
        return sum(Packet.INT_HOP_BYTES * len(p.hops) for p in self.postcards)
