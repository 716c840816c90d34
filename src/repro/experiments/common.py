"""Scenario framework: Fig. 8 topology + P4 monitor + perfSONAR node +
workloads, assembled behind one object so each experiment reads as its
recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.netem import LossImpairment
from repro.netsim.packet import PROTO_UDP, Packet, int_to_ip
from repro.netsim.topology import ScienceDMZTopology, TopologyConfig, build_science_dmz
from repro.netsim.units import mbps, seconds
from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane, TrackedFlow
from repro.core.monitor import P4Monitor
from repro.core.reports import LimiterVerdict, MicroburstEvent
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.node import PerfSonarNode
from repro.tcp.apps import Iperf3Client, Iperf3Server
from repro.tcp.stack import TcpHostStack


@dataclass
class ScenarioConfig:
    """Scaled experiment parameters (paper values in comments)."""

    bottleneck_mbps: float = 100.0          # paper: 10 000 (10 Gbps)
    rtts_ms: Tuple[float, ...] = (50.0, 75.0, 100.0)  # paper: same
    reference_rtt_ms: float = 100.0
    buffer_bdp_fraction: float = 1.0        # paper §5.4.1 guideline: 1 BDP
    mss: int = 8948
    access_multiplier: float = 4.0          # DTN NICs outrun the bottleneck
    monitor_overrides: dict = field(default_factory=dict)

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(
            bottleneck_bps=mbps(self.bottleneck_mbps),
            rtts_ms=self.rtts_ms,
            reference_rtt_ms=self.reference_rtt_ms,
            buffer_bdp_fraction=self.buffer_bdp_fraction,
            mss=self.mss,
            access_multiplier=self.access_multiplier,
        )


@dataclass
class FlowHandle:
    """One workload flow plus its endpoint ground truth."""

    index: int
    dst_index: int
    dst_ip: int
    client: Iperf3Client
    server: Iperf3Server

    @property
    def ground_truth_series(self) -> List[Tuple[float, float]]:
        """(t_s, Mbps) measured at the receiving application."""
        return self.server.throughput_series()

    @property
    def stats(self):
        return self.client.stats


class Scenario:
    """A ready-to-run instance of the paper's testbed.  Its control plane
    ships every report into ``archiver``, where a run's results are read."""

    def __init__(self, config: Optional[ScenarioConfig] = None,
                 with_perfsonar: bool = True,
                 copy_recorder=None) -> None:
        self.config = config or ScenarioConfig()
        self.sim = Simulator()
        topo_cfg = self.config.topology_config()
        self.topology: ScienceDMZTopology = build_science_dmz(self.sim, topo_cfg)

        monitor_cfg = MonitorConfig(
            bottleneck_rate_bps=topo_cfg.bottleneck_bps,
            buffer_bytes=topo_cfg.buffer_bytes(),
            **self.config.monitor_overrides,
        )
        self.monitor = P4Monitor(monitor_cfg, sim=self.sim)
        # copy_recorder (a MirrorCopy callable) tees the TAP stream before
        # the monitor sees it — used by validation replay round-trips.
        if copy_recorder is None:
            tap_sink = self.monitor.receive_copy
        else:
            def tap_sink(copy, _rec=copy_recorder,
                         _mon=self.monitor.receive_copy):
                _rec(copy)
                _mon(copy)
        self.topology.attach_tap(tap_sink)

        # with_perfsonar adds pScheduler, psconfig and the echo node.
        self.perfsonar: Optional[PerfSonarNode] = None
        if with_perfsonar:
            self.perfsonar = PerfSonarNode(
                self.sim, self.topology.internal_perfsonar, mss=topo_cfg.mss
            )
            self.archiver = self.perfsonar.archiver
        else:
            self.archiver = Archiver()
        self.control_plane = MonitorControlPlane(
            self.sim, self.monitor, report_sink=self.archiver.sink
        )
        if self.perfsonar is not None:
            self.perfsonar.psconfig.attach(self.control_plane)
        self.control_plane.start()

        self.client_stack = TcpHostStack(
            self.sim, self.topology.internal_dtn, default_mss=topo_cfg.mss
        )
        self.server_stacks = [
            TcpHostStack(self.sim, dtn, default_mss=topo_cfg.mss)
            for dtn in self.topology.external_dtns
        ]
        self.flows: List[FlowHandle] = []
        self._ports = iter(range(5201, 6201))

    # -- workload construction ---------------------------------------------------

    def add_flow(
        self,
        dst_index: int,
        start_s: float = 0.0,
        duration_s: float = 30.0,
        cc: str = "cubic",
        rate_mbps: Optional[float] = None,
        server_rcv_buf: int = 4 * 1024 * 1024,
    ) -> FlowHandle:
        """An iPerf3 transfer from the internal DTN to external DTN
        ``dst_index``.  ``rate_mbps`` caps the sender (Fig. 12's
        sender-limited case); ``server_rcv_buf`` shrinks the receiver
        window (the receiver-limited case)."""
        port = next(self._ports)
        dst = self.topology.external_dtns[dst_index]
        server = Iperf3Server(
            self.sim, self.server_stacks[dst_index], port=port,
            rcv_buf_bytes=server_rcv_buf,
        )
        client = Iperf3Client(
            self.sim,
            self.client_stack,
            server_ip=dst.ip,
            server_port=port,
            duration_ns=seconds(duration_s),
            rate_bps=mbps(rate_mbps) if rate_mbps is not None else None,
            cc=cc,
            start_ns=seconds(start_s),
        )
        handle = FlowHandle(
            index=len(self.flows), dst_index=dst_index, dst_ip=dst.ip,
            client=client, server=server,
        )
        self.flows.append(handle)
        return handle

    def add_path_loss(self, dst_index: int, loss_rate: float, seed: int = 7,
                      data_only: bool = True) -> LossImpairment:
        """Random loss on external DTN ``dst_index``'s access link — the
        'network is the bottleneck' impairment of §5.4.2."""
        dtn = self.topology.external_dtns[dst_index]
        for link in self.topology.links:
            if link.a.owner is dtn or link.b.owner is dtn:
                imp = LossImpairment(loss_rate, seed=seed, data_only=data_only)
                link.impairments.append(imp)
                return imp
        raise LookupError(f"no access link found for dtn{dst_index + 1}")

    def inject_burst(self, at_s: float, nbytes: int, dst_index: int = 0,
                     pkt_len: int = 1400) -> None:
        """Inject a packet train from the internal DTN toward DTN
        ``dst_index`` — a microburst source (§5.4.1).  The train leaves
        the host back-to-back at NIC rate and slams the bottleneck queue."""
        dst_ip = self.topology.external_dtns[dst_index].ip
        host = self.topology.internal_dtn

        def fire() -> None:
            for i in range(max(1, nbytes // pkt_len)):
                host.send(Packet(
                    src_ip=host.ip, dst_ip=dst_ip,
                    src_port=7000, dst_port=7001,
                    seq=i, proto=PROTO_UDP, payload_len=pkt_len,
                    created_ns=self.sim.now,
                ))

        self.sim.at(seconds(at_s), fire)

    # -- execution ------------------------------------------------------------------

    def run(self, until_s: float) -> None:
        self.sim.run_until(seconds(until_s))

    # -- result access ----------------------------------------------------------------

    def monitored_flow(self, handle: FlowHandle) -> Optional[TrackedFlow]:
        """The control plane's record of a workload flow (by destination
        IP + port, the tuple the experiment controls)."""
        for flow in self.control_plane.flows.values():
            if flow.dst_ip == handle.dst_ip and flow.dst_port == handle.server.port:
                return flow
        return None

    def monitor_series(self, handle: FlowHandle, kind: MetricKind) -> List[Tuple[float, float]]:
        """(t_s, value) of a workload flow's archived ``kind`` samples."""
        flow = self.monitored_flow(handle)
        if flow is None:
            return []
        return self.archiver.series(f"p4_{kind.value}", flow.flow_id)

    def throughput_series_mbps(self, handle: FlowHandle) -> List[Tuple[float, float]]:
        return [(t, v / 1e6) for t, v in
                self.monitor_series(handle, MetricKind.THROUGHPUT)]

    def verdict(self, flow: TrackedFlow) -> LimiterVerdict:
        """A tracked flow's §4.4 verdict: its last archived limiter
        report's (``UNKNOWN`` before its first loss tick)."""
        docs = self.archiver.documents("p4_limiter", flow_id=flow.flow_id)
        return LimiterVerdict(docs[-1]["verdict"]) if docs else LimiterVerdict.UNKNOWN

    def microbursts(self) -> List[MicroburstEvent]:
        """The archived microburst events, in detection order."""
        return list(map(MicroburstEvent.from_document,
                        self.archiver.documents("p4_microburst")))

    def label(self, handle: FlowHandle) -> str:
        return f"->{int_to_ip(handle.dst_ip)}"


def mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def window(series: List[Tuple[float, float]], lo_s: float, hi_s: float) -> List[float]:
    """Values of a (t, v) series with lo <= t < hi."""
    return [v for t, v in series if lo_s <= t < hi_s]
