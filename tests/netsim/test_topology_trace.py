"""Fig. 8 topology builder and the packet trace recorder."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, ip_to_int, make_data_packet
from repro.netsim.topology import (
    INTERNAL_DTN_IP,
    ScienceDMZTopology,
    TopologyConfig,
    build_science_dmz,
    external_dtn_ip,
)
from repro.netsim.trace import PacketTrace
from repro.netsim.units import bdp_bytes, mbps, millis, seconds


def test_structure(topo):
    assert len(topo.external_dtns) == 3
    assert len(topo.external_perfsonar) == 3
    assert topo.internal_dtn.ip == ip_to_int(INTERNAL_DTN_IP)
    assert topo.external_dtns[1].ip == ip_to_int(external_dtn_ip(1))
    assert topo.bottleneck_port.owner is topo.core_switch


def test_buffer_sized_to_bdp(small_topo_config):
    expected = bdp_bytes(small_topo_config.bottleneck_bps,
                         millis(small_topo_config.reference_rtt_ms))
    assert small_topo_config.buffer_bytes() == expected


def test_buffer_fraction_applies():
    cfg = TopologyConfig(buffer_bdp_fraction=0.25)
    assert cfg.buffer_bytes() == pytest.approx(cfg.buffer_bytes() // 1, abs=1)
    full = TopologyConfig(buffer_bdp_fraction=1.0).buffer_bytes()
    assert cfg.buffer_bytes() * 4 == pytest.approx(full, rel=0.01)


def test_rtt_budget_rejects_too_small_rtt():
    cfg = TopologyConfig(rtts_ms=(1.0,), reference_rtt_ms=1.0)
    with pytest.raises(ValueError):
        cfg.external_access_delay_ms(0)


def test_routes_reach_every_host(sim, topo):
    """A raw packet from the internal DTN reaches each external DTN."""
    for dtn in topo.external_dtns:
        topo.internal_dtn.send(make_data_packet(
            FiveTuple(topo.internal_dtn.ip, dtn.ip, 1, 2), seq=0, payload_len=10))
    sim.run()
    for dtn in topo.external_dtns:
        assert dtn.rx_packets == 1


def test_reverse_routes(sim, topo):
    for dtn in topo.external_dtns:
        dtn.send(make_data_packet(
            FiveTuple(dtn.ip, topo.internal_dtn.ip, 1, 2), seq=0, payload_len=10))
    sim.run()
    assert topo.internal_dtn.rx_packets == 3


def test_one_way_delay_matches_configured_rtt(sim, topo, small_topo_config):
    """Propagation one-way ≈ RTT/2 for each external path."""
    for i, dtn in enumerate(topo.external_dtns):
        trace = PacketTrace()
        dtn.rx_hooks.append(trace)
        start = sim.now
        topo.internal_dtn.send(make_data_packet(
            FiveTuple(topo.internal_dtn.ip, dtn.ip, 1, 2), seq=0, payload_len=0))
        sim.run()
        one_way = trace.records[-1].timestamp_ns - start
        expected = millis(small_topo_config.rtts_ms[i] / 2)
        # Within serialisation slack (3 hops of a 40-byte packet).
        assert abs(one_way - expected) < millis(1.0)


def test_tap_attaches_to_bottleneck_by_default(sim, topo):
    copies = []
    tap = topo.attach_tap(lambda c: copies.append(c))
    assert topo.tap is tap
    # Egress mirror installed only on the bottleneck port.
    assert topo.bottleneck_port.egress_mirrors
    non_bottleneck = [p for p in topo.core_switch.ports if p is not topo.bottleneck_port]
    assert all(not p.egress_mirrors for p in non_bottleneck)


# -- trace recorder -------------------------------------------------------------


def test_trace_records_and_filters():
    trace = PacketTrace()
    ft1 = FiveTuple(1, 2, 3, 4)
    ft2 = FiveTuple(5, 6, 7, 8)
    trace.record(make_data_packet(ft1, seq=0, payload_len=100), 1000)
    trace.record(make_data_packet(ft2, seq=0, payload_len=50), 2000)
    trace.record(make_data_packet(ft1, seq=100, payload_len=100), 3000)
    assert len(trace) == 3
    assert len(trace.for_flow(ft1)) == 2
    assert trace.total_payload_bytes(ft1) == 200


def test_trace_iat():
    trace = PacketTrace()
    ft = FiveTuple(1, 2, 3, 4)
    for i, t in enumerate((0, 100, 350)):
        trace.record(make_data_packet(ft, seq=i, payload_len=10), t)
    assert trace.inter_arrival_times_ns() == [100, 250]


def test_trace_throughput():
    trace = PacketTrace()
    ft = FiveTuple(1, 2, 3, 4)
    # 2 x 1000 B over 1 ms span -> the span only covers the second packet's
    # bytes... throughput = total bytes * 8 / span.
    trace.record(make_data_packet(ft, seq=0, payload_len=1000), 0)
    trace.record(make_data_packet(ft, seq=1000, payload_len=1000), 1_000_000)
    assert trace.throughput_bps() == pytest.approx(2000 * 8 * 1e9 / 1e6)


def test_trace_throughput_degenerate_cases():
    trace = PacketTrace()
    assert trace.throughput_bps() == 0.0
    ft = FiveTuple(1, 2, 3, 4)
    trace.record(make_data_packet(ft, seq=0, payload_len=10), 5)
    assert trace.throughput_bps() == 0.0  # single packet, no span
