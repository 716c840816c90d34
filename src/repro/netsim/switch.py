"""The legacy (non-programmable) switch of Fig. 3/8.

Output-queued, store-and-forward, static IPv4 forwarding.  Congestion —
and therefore the queueing delay / microburst phenomena the P4 monitor
measures — happens in the tail-drop FIFO of the egress :class:`Port`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.host import Node
from repro.netsim.link import MirrorFn, Port
from repro.netsim.packet import Packet, ip_to_int


class LegacySwitch(Node):
    """A fixed-function switch with a static ``dst_ip -> port`` table.

    ``ingress_mirrors`` is the attachment point for the ingress optical
    TAP: every packet is mirrored at the instant it arrives, *before*
    queueing, which is what lets the P4 switch compute per-packet queueing
    delay by differencing the ingress and egress copies (§4.2).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._fib: Dict[int, Port] = {}
        self.ingress_mirrors: List[MirrorFn] = []
        self.rx_packets = 0
        self.no_route_drops = 0
        self._trace = sim.trace

    # -- control ------------------------------------------------------------

    def add_route(self, dst_ip: str | int, port: Port) -> None:
        ip = ip_to_int(dst_ip) if isinstance(dst_ip, str) else dst_ip
        if port.owner is not self:
            raise ValueError(f"port {port.name} does not belong to switch {self.name}")
        self._fib[ip] = port

    def route_for(self, dst_ip: int) -> Optional[Port]:
        return self._fib.get(dst_ip)

    # -- data path ------------------------------------------------------------

    def receive(self, pkt: Packet, port: Port) -> None:
        self.rx_packets += 1
        if self._trace is not None and self._trace.wants(pkt):
            self._trace.packet_event("netsim", "switch-rx", self.name,
                                     pkt, self.sim.now, port=port.name)
        if self.ingress_mirrors:
            now = self.sim.now
            for mirror in self.ingress_mirrors:
                mirror(pkt, now)
        out = self._fib.get(pkt.dst_ip)  # route_for, without the call
        if out is None:
            self.no_route_drops += 1
            return
        out.send(pkt)
