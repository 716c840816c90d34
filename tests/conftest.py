"""Shared fixtures: small, fast topologies and monitor assemblies."""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, ip_to_int
from repro.netsim.topology import TopologyConfig, build_science_dmz
from repro.netsim.units import mbps
from repro.perfsonar.archiver import Archiver
from repro.tcp.stack import TcpHostStack


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_topo_config() -> TopologyConfig:
    """A fast topology: 25 Mb/s bottleneck, short RTTs, jumbo frames."""
    return TopologyConfig(
        bottleneck_bps=mbps(25),
        rtts_ms=(20.0, 30.0, 40.0),
        reference_rtt_ms=40.0,
        mss=8948,
    )


@pytest.fixture
def topo(sim, small_topo_config):
    return build_science_dmz(sim, small_topo_config)


@pytest.fixture
def monitor_config(small_topo_config) -> MonitorConfig:
    return MonitorConfig(
        bottleneck_rate_bps=small_topo_config.bottleneck_bps,
        buffer_bytes=small_topo_config.buffer_bytes(),
        long_flow_bytes=50_000,
    )


@pytest.fixture
def monitored_topo(sim, topo, monitor_config):
    """(sim, topo, monitor, control_plane) with the TAP attached; the
    control plane ships into an archive, where its reports are read."""
    monitor = P4Monitor(monitor_config, sim=sim)
    topo.attach_tap(monitor.receive_copy)
    cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
    cp.start()
    return sim, topo, monitor, cp


@pytest.fixture
def stacks(sim, topo, small_topo_config):
    """(client_stack, [server stacks]) on the topology hosts."""
    client = TcpHostStack(sim, topo.internal_dtn, default_mss=small_topo_config.mss)
    servers = [
        TcpHostStack(sim, dtn, default_mss=small_topo_config.mss)
        for dtn in topo.external_dtns
    ]
    return client, servers


def make_five_tuple(i: int = 0) -> FiveTuple:
    return FiveTuple(
        src_ip=ip_to_int("10.0.0.10"),
        dst_ip=ip_to_int(f"10.{(i % 3) + 1}.0.10"),
        src_port=40_000 + i,
        dst_port=5201,
    )
