"""ECN (RFC 3168): negotiation, marking, echo, reaction, monitor view."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.packet import Packet, TCPFlags
from repro.netsim.units import mbps, millis, seconds
from repro.tcp.stack import INFINITE_DATA, TcpHostStack

MSS = 1448


def make_path(sim, rate=mbps(20), qbytes=120_000, ecn_threshold=40_000):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    connect(sim, a, b, rate, millis(10),
            queue_bytes_a=qbytes, queue_bytes_b=qbytes)
    a.ports[0].ecn_threshold_bytes = ecn_threshold
    return TcpHostStack(sim, a, default_mss=MSS), TcpHostStack(sim, b, default_mss=MSS)


def connected_pair(sim, cstack, sstack, client_ecn=True, server_ecn=True):
    sstack.listen(5201, ecn_enabled=server_ecn)
    conn = cstack.open_connection(sstack.host.ip, 5201, ecn_enabled=client_ecn)
    return conn


def test_negotiation_both_sides(sim):
    cstack, sstack = make_path(sim)
    conn = connected_pair(sim, cstack, sstack)
    conn.connect()
    sim.run_until(seconds(1))
    assert conn._ecn_on


def test_no_negotiation_if_server_declines(sim):
    cstack, sstack = make_path(sim)
    conn = connected_pair(sim, cstack, sstack, server_ecn=False)
    conn.connect()
    sim.run_until(seconds(1))
    assert not conn._ecn_on


def test_no_negotiation_if_client_declines(sim):
    cstack, sstack = make_path(sim)
    conn = connected_pair(sim, cstack, sstack, client_ecn=False)
    conn.connect()
    sim.run_until(seconds(1))
    assert not conn._ecn_on


def test_packet_ecn_codepoint_validated():
    with pytest.raises(ValueError):
        Packet(1, 2, 3, 4, ecn=4)


def test_ecn_survives_wire_roundtrip():
    pkt = Packet(1, 2, 3, 4, ecn=Packet.ECN_CE, payload_len=10)
    assert Packet.from_bytes(pkt.to_bytes()).ecn == Packet.ECN_CE


def test_queue_marks_instead_of_waiting_for_drop(sim):
    cstack, sstack = make_path(sim)
    conn = connected_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    sim.after(seconds(5), conn.close)
    sim.run_until(seconds(7))
    port = cstack.host.ports[0]
    assert port.ce_marked > 0
    server_conn_stats = conn.stats
    assert server_conn_stats.ecn_reactions > 0


def test_ecn_reduces_retransmissions(
):
    """With marking, congestion is signalled without drops: markedly
    fewer retransmissions than the drop-only run."""
    results = {}
    for ecn in (True, False):
        sim = Simulator()
        cstack, sstack = make_path(sim)
        conn = connected_pair(sim, cstack, sstack,
                              client_ecn=ecn, server_ecn=ecn)
        conn.on_established.append(lambda c: c.write(INFINITE_DATA))
        conn.connect()
        sim.after(seconds(6), conn.close)
        sim.run_until(seconds(8))
        results[ecn] = conn.stats
        assert conn.stats.bytes_acked > 4_000_000  # still does useful work
    assert results[True].retransmissions < results[False].retransmissions
    assert results[True].ecn_reactions > 0
    assert results[False].ecn_reactions == 0


def test_one_reaction_per_window(sim):
    """ECE persists until CWR, but the sender cuts at most once per
    window of data."""
    cstack, sstack = make_path(sim)
    conn = connected_pair(sim, cstack, sstack)
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    sim.after(seconds(4), conn.close)
    sim.run_until(seconds(6))
    # Reactions are far fewer than CE-marked packets.
    port = cstack.host.ports[0]
    assert 0 < conn.stats.ecn_reactions < max(2, port.ce_marked)


def test_monitor_counts_ce_marks():
    """The egress-TAP copy carries the CE mark; the monitor's per-flow
    CE register sees congestion that produced no drops."""
    from repro.experiments.common import Scenario, ScenarioConfig

    scenario = Scenario(ScenarioConfig(bottleneck_mbps=30.0,
                                       rtts_ms=(20.0, 30.0, 40.0),
                                       reference_rtt_ms=40.0),
                        with_perfsonar=False)
    # Arm ECN marking on the bottleneck queue at 1/4 occupancy.
    port = scenario.topology.bottleneck_port
    port.ecn_threshold_bytes = port.queue_limit_bytes // 4

    sstack = scenario.server_stacks[0]
    sstack.listen(5400, ecn_enabled=True)
    conn = scenario.client_stack.open_connection(
        scenario.topology.external_dtns[0].ip, 5400, ecn_enabled=True)
    conn.on_established.append(lambda c: c.write(INFINITE_DATA))
    conn.connect()
    scenario.sim.after(seconds(6), conn.close)
    scenario.run(8.0)

    mask = scenario.monitor.config.flow_slots - 1
    flows = list(scenario.control_plane.flows.values())
    assert flows
    ce = scenario.control_plane.runtime.read_register(
        "flow_ce_marks", flows[0].flow_id & mask)
    assert ce > 0
    assert conn.stats.ecn_reactions > 0
