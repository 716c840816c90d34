"""Bidirectional workloads: data flowing both ways through the tapped
switch.  The monitor must track each direction as its own flow, match
each direction's eACK signatures against the right ACK stream, and keep
the two directions' registers independent."""

import pytest

from repro.experiments.common import Scenario, ScenarioConfig
from repro.netsim.units import seconds
from repro.tcp.apps import Iperf3Client, Iperf3Server


@pytest.fixture(scope="module")
def bidir_run():
    """internal -> DTN1 and DTN2 -> internal, concurrently."""
    scenario = Scenario(ScenarioConfig(bottleneck_mbps=30.0,
                                       rtts_ms=(20.0, 30.0, 40.0),
                                       reference_rtt_ms=40.0),
                        with_perfsonar=False)
    out_handle = scenario.add_flow(0, duration_s=8.0)

    # Reverse direction: a server on the internal DTN, client on DTN2.
    rev_server = Iperf3Server(scenario.sim, scenario.client_stack, port=5600)
    rev_client = Iperf3Client(
        scenario.sim,
        scenario.server_stacks[1],
        server_ip=scenario.topology.internal_dtn.ip,
        server_port=5600,
        duration_ns=seconds(8.0),
    )
    scenario.run(10.0)
    return scenario, out_handle, rev_client, rev_server


def test_both_directions_tracked(bidir_run):
    scenario, out_handle, rev_client, rev_server = bidir_run
    flows = scenario.control_plane.flows.values()
    internal_ip = scenario.topology.internal_dtn.ip
    outbound = [f for f in flows if f.src_ip == internal_ip]
    inbound = [f for f in flows if f.dst_ip == internal_ip]
    assert outbound and inbound


def test_both_directions_complete(bidir_run):
    scenario, out_handle, rev_client, rev_server = bidir_run
    assert out_handle.client.done
    assert rev_client.done
    assert out_handle.server.total_bytes > 1_000_000
    assert rev_server.total_bytes > 1_000_000


def test_rtt_semantics_depend_on_tap_position(bidir_run):
    """The eACK algorithm measures TAP -> receiver -> TAP.  For outbound
    flows (receiver across the WAN) that is essentially the path RTT; for
    inbound flows (receiver right next to the TAP) it is only the short
    downstream stub.  Both are correct — and the asymmetry is a real
    property of passive single-point RTT measurement (docs/algorithm1.md)."""
    scenario, out_handle, rev_client, rev_server = bidir_run
    internal_ip = scenario.topology.internal_dtn.ip
    cp = scenario.control_plane
    for flow in cp.flows.values():
        rtts = [v for _, v in scenario.archiver.series("p4_rtt", flow.flow_id)]
        assert rtts, f"no RTTs for flow {flow.flow_id:#x}"
        if flow.src_ip == internal_ip:
            # Outbound: TAP -> external DTN1 covers the 20 ms path.
            assert min(rtts) > 0.9 * 20.0
            assert min(rtts) < 20.0 + 60.0
        else:
            # Inbound: TAP -> internal DTN is ~2x the 0.5 ms access leg.
            assert min(rtts) < 5.0


def test_directions_do_not_share_registers(bidir_run):
    scenario, out_handle, rev_client, rev_server = bidir_run
    cp = scenario.control_plane
    flows = list(cp.flows.values())
    slots = {f.slot for f in flows}
    assert len(slots) == len(flows)  # no slot collisions in this run
    for flow in flows:
        seen = cp.runtime.read_register("flow_bytes", flow.slot)
        assert seen > 1_000_000


def test_reverse_direction_queue_not_attributed_to_forward(bidir_run):
    """The egress TAP sits on the bottleneck port (internal->wan), so
    only the outbound direction should show its queueing delay; the
    inbound flow's queue register reflects the (uncongested or
    differently congested) reverse path through sw1."""
    scenario, out_handle, rev_client, rev_server = bidir_run
    internal_ip = scenario.topology.internal_dtn.ip
    cp = scenario.control_plane
    mask = scenario.monitor.config.flow_slots - 1
    outbound = next(f for f in cp.flows.values() if f.src_ip == internal_ip)
    # Outbound direction definitely crossed the tapped queue.
    qocc = [v for _, v in scenario.archiver.series("p4_queue_occupancy",
                                                   outbound.flow_id)]
    assert qocc and max(qocc) > 0.0
