"""Network nodes: the abstract :class:`Node` and end-host :class:`Host`.

A host owns one (or more) ports and hands every received packet to a
protocol stack registered via :meth:`Host.set_stack` — in this repo that
is the TCP host stack from :mod:`repro.tcp.stack`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from repro.netsim.engine import Simulator
from repro.netsim.link import Port
from repro.netsim.packet import Packet, ip_to_int


class PacketSink(Protocol):
    """Anything that can absorb delivered packets (a TCP stack, a trace)."""

    def deliver(self, pkt: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """Base class for anything with ports (hosts and switches)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []

    def new_port(self, rate_bps: int, queue_limit_bytes: int = 16 * 1024 * 1024) -> Port:
        port = Port(self.sim, self, rate_bps, queue_limit_bytes)
        self.ports.append(port)
        return port

    def receive(self, pkt: Packet, port: Port) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Host(Node):
    """An end host (DTN or perfSONAR node) with a single IPv4 address.

    Received packets addressed to this host go to the registered stack;
    anything else is counted and dropped (hosts do not forward).
    """

    def __init__(self, sim: Simulator, name: str, ip: str | int) -> None:
        super().__init__(sim, name)
        self.ip = ip_to_int(ip) if isinstance(ip, str) else ip
        self._stack: Optional[PacketSink] = None
        self._proto_sinks: dict[int, PacketSink] = {}
        self.rx_packets = 0
        self.rx_bytes = 0
        self.misdelivered = 0
        self.rx_hooks: List[Callable[[Packet, int], None]] = []

    def set_stack(self, stack: PacketSink) -> None:
        """Default stack (receives packets no protocol sink claims)."""
        self._stack = stack

    def register_proto(self, proto: int, sink: PacketSink) -> None:
        """Bind a protocol number to a dedicated sink (e.g. the echo agent
        on proto 1 next to the TCP stack on proto 6)."""
        if proto in self._proto_sinks:
            raise ValueError(f"protocol {proto} already bound on {self.name}")
        self._proto_sinks[proto] = sink

    @property
    def stack(self) -> Optional[PacketSink]:
        return self._stack

    def receive(self, pkt: Packet, port: Port) -> None:
        if pkt.dst_ip != self.ip:
            self.misdelivered += 1
            return
        self.rx_packets += 1
        self.rx_bytes += pkt.wire_len
        if self.rx_hooks:
            now = self.sim.now
            for hook in self.rx_hooks:
                hook(pkt, now)
        sink = self._proto_sinks.get(pkt.proto, self._stack)
        if sink is not None:
            sink.deliver(pkt)

    def port(self) -> Port:
        """The host's (single) NIC port."""
        if not self.ports:
            raise RuntimeError(f"host {self.name} has no ports")
        return self.ports[0]

    def send(self, pkt: Packet) -> bool:
        """Transmit out of the NIC.  Returns False if the NIC queue drops."""
        try:
            nic = self.ports[0]
        except IndexError:
            raise RuntimeError(f"host {self.name} has no ports") from None
        return nic.send(pkt)
