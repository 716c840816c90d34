"""Builder for the experimental topology of Fig. 8.

One internal network (DTN + perfSONAR node) and three external networks
(each a DTN + perfSONAR node), interconnected by two legacy switches whose
interconnecting link is the bottleneck.  A pair of passive optical TAPs
captures traffic entering/exiting the legacy switch adjacent to the
internal network (the "core switch").

The paper runs at 10 Gbps with RTTs of 50/75/100 ms; pure-Python packet
simulation runs the same topology at a scaled bottleneck rate (default
100 Mbps) with every *ratio* preserved — see DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import Link, Port, connect
from repro.netsim.switch import LegacySwitch
from repro.netsim.tap import MirrorSink, OpticalTap
from repro.netsim.units import bdp_bytes, mbps, millis


@dataclass
class TopologyConfig:
    """Scaled Fig. 8 parameters.

    ``buffer_bdp_fraction`` sizes the core-switch bottleneck queue as a
    fraction of the BDP at ``reference_rtt_ms`` (paper §5.4.1: the
    guideline buffer is 1 BDP; the small-buffer experiment uses 1/4).
    """

    bottleneck_bps: int = mbps(100)
    access_multiplier: float = 4.0
    rtts_ms: tuple = (50.0, 75.0, 100.0)
    reference_rtt_ms: float = 100.0
    buffer_bdp_fraction: float = 1.0
    mss: int = 8948  # jumbo frames; scaled runs keep packet counts tractable
    host_queue_bytes: int = 64 * 1024 * 1024

    # Delay budget (one-way): host->sw1 and sw1->sw2 are fixed; the
    # remainder of each path's RTT/2 is placed on the sw2->external link.
    internal_access_delay_ms: float = 0.5
    backbone_delay_ms: float = 2.0

    def buffer_bytes(self) -> int:
        bdp = bdp_bytes(self.bottleneck_bps, millis(self.reference_rtt_ms))
        return max(self.mss, round(bdp * self.buffer_bdp_fraction))

    def external_access_delay_ms(self, i: int) -> float:
        budget = self.rtts_ms[i] / 2.0 - self.internal_access_delay_ms - self.backbone_delay_ms
        if budget < 0:
            raise ValueError(
                f"RTT {self.rtts_ms[i]} ms too small for the fixed delay budget"
            )
        return budget


@dataclass
class ScienceDMZTopology:
    """The instantiated network.  Hosts carry no TCP stack yet — the
    experiment layer (:mod:`repro.experiments.common`) attaches stacks and
    applications."""

    sim: Simulator
    config: TopologyConfig
    internal_dtn: Host
    internal_perfsonar: Host
    external_dtns: List[Host]
    external_perfsonar: List[Host]
    core_switch: LegacySwitch   # sw1, the tapped switch
    wan_switch: LegacySwitch    # sw2
    bottleneck_link: Link
    bottleneck_port: Port       # sw1's queue toward sw2 (the measured queue)
    links: List[Link] = field(default_factory=list)
    tap: Optional[OpticalTap] = None

    def attach_tap(
        self,
        sink: MirrorSink,
        fiber_delay_ns: int = 0,
        all_egress_ports: bool = False,
    ) -> OpticalTap:
        """Install the paper's TAP pair on the core switch.

        The ingress TAP mirrors everything arriving at the core switch
        (both directions — the RTT algorithm needs data *and* ACK
        streams).  The egress TAP defaults to the bottleneck-facing port
        only: that is the congested queue of Fig. 8, so ingress/egress
        copy pairs measure exactly its queueing delay.  Pass
        ``all_egress_ports=True`` to mirror every departing packet
        instead (mixes the uncongested reverse direction into the queue
        signal; kept for ablations).
        """
        egress = None if all_egress_ports else [self.bottleneck_port]
        self.tap = OpticalTap(
            self.sim,
            self.core_switch,
            sink,
            egress_ports=egress,
            fiber_delay_ns=fiber_delay_ns,
        )
        return self.tap

    @property
    def all_hosts(self) -> List[Host]:
        return (
            [self.internal_dtn, self.internal_perfsonar]
            + self.external_dtns
            + self.external_perfsonar
        )


INTERNAL_DTN_IP = "10.0.0.10"
INTERNAL_PS_IP = "10.0.0.20"


def external_dtn_ip(i: int) -> str:
    return f"10.{i + 1}.0.10"


def external_ps_ip(i: int) -> str:
    return f"10.{i + 1}.0.20"


def build_science_dmz(sim: Simulator, config: Optional[TopologyConfig] = None) -> ScienceDMZTopology:
    """Instantiate Fig. 8: hosts, switches, links, routes.

    The bottleneck queue (sw1's port toward sw2, and the reverse for ACK
    traffic) gets the configured buffer; all other queues are deep so the
    bottleneck is unambiguous, as in the paper's testbed.
    """
    cfg = config or TopologyConfig()
    access_bps = round(cfg.bottleneck_bps * cfg.access_multiplier)
    deep = cfg.host_queue_bytes
    buf = cfg.buffer_bytes()

    sw1 = LegacySwitch(sim, "core-sw1")
    sw2 = LegacySwitch(sim, "wan-sw2")

    links: List[Link] = []

    # Bottleneck: sw1 <-> sw2, shallow buffers in both directions.
    bottleneck = connect(
        sim, sw1, sw2, cfg.bottleneck_bps, millis(cfg.backbone_delay_ms),
        queue_bytes_a=buf, queue_bytes_b=buf, name="bottleneck",
    )
    links.append(bottleneck)
    bottleneck_port = bottleneck.a  # sw1 side

    # Internal network on sw1.
    internal_dtn = Host(sim, "internal-dtn", INTERNAL_DTN_IP)
    internal_ps = Host(sim, "internal-ps", INTERNAL_PS_IP)
    for host in (internal_dtn, internal_ps):
        link = connect(
            sim, host, sw1, access_bps, millis(cfg.internal_access_delay_ms),
            queue_bytes_a=deep, queue_bytes_b=deep, name=f"{host.name}<->sw1",
        )
        links.append(link)
        sw1.add_route(host.ip, link.b)
        sw2.add_route(host.ip, bottleneck.b)

    # External networks on sw2, one per RTT.
    ext_dtns: List[Host] = []
    ext_ps: List[Host] = []
    for i in range(len(cfg.rtts_ms)):
        delay = millis(cfg.external_access_delay_ms(i))
        dtn = Host(sim, f"dtn{i + 1}", external_dtn_ip(i))
        ps = Host(sim, f"ps{i + 1}", external_ps_ip(i))
        for host in (dtn, ps):
            link = connect(
                sim, host, sw2, access_bps, delay,
                queue_bytes_a=deep, queue_bytes_b=deep, name=f"{host.name}<->sw2",
            )
            links.append(link)
            sw2.add_route(host.ip, link.b)
            sw1.add_route(host.ip, bottleneck.a)
        ext_dtns.append(dtn)
        ext_ps.append(ps)

    return ScienceDMZTopology(
        sim=sim,
        config=cfg,
        internal_dtn=internal_dtn,
        internal_perfsonar=internal_ps,
        external_dtns=ext_dtns,
        external_perfsonar=ext_ps,
        core_switch=sw1,
        wan_switch=sw2,
        bottleneck_link=bottleneck,
        bottleneck_port=bottleneck_port,
        links=links,
    )
