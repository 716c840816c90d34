"""Legacy switch forwarding and the passive TAP pair."""

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.packet import PROTO_UDP, FiveTuple, Packet, make_data_packet
from repro.netsim.switch import LegacySwitch
from repro.netsim.tap import MirrorCopy, OpticalTap, TapDirection
from repro.netsim.units import mbps


@pytest.fixture
def star(sim):
    """h1 -- sw -- h2, plus h3 off the same switch."""
    sw = LegacySwitch(sim, "sw")
    hosts = [Host(sim, f"h{i}", f"10.0.0.{i}") for i in (1, 2, 3)]
    links = [connect(sim, h, sw, mbps(100), 100_000) for h in hosts]
    for h, l in zip(hosts, links):
        sw.add_route(h.ip, l.b)
    return sw, hosts, links


def test_forwarding_by_destination(sim, star):
    sw, (h1, h2, h3), _ = star
    h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=100))
    h1.send(make_data_packet(FiveTuple(h1.ip, h3.ip, 1, 2), seq=0, payload_len=100))
    sim.run()
    assert h2.rx_packets == 1
    assert h3.rx_packets == 1
    assert sw.rx_packets == 2


def test_no_route_drops(sim, star):
    sw, (h1, h2, h3), _ = star
    h1.send(make_data_packet(FiveTuple(h1.ip, 0x0B0B0B0B, 1, 2), seq=0, payload_len=100))
    sim.run()
    assert sw.no_route_drops == 1


def test_route_to_foreign_port_rejected(sim, star):
    sw, hosts, links = star
    other = LegacySwitch(sim, "other")
    with pytest.raises(ValueError):
        sw.add_route("10.0.0.1", other.new_port(mbps(10)))


def test_tap_produces_ingress_and_egress_copies(sim, star):
    sw, (h1, h2, h3), _ = star
    copies = []
    OpticalTap(sim, sw, copies.append)
    h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=100))
    sim.run()
    directions = [c.direction for c in copies]
    assert directions == [TapDirection.INGRESS, TapDirection.EGRESS]
    # Same packet, both copies.
    assert copies[0].pkt.uid == copies[1].pkt.uid
    # Egress copy is stamped later (queue + serialisation).
    assert copies[1].timestamp_ns > copies[0].timestamp_ns


def test_tap_timestamp_delta_is_switch_transit_time(sim, star):
    sw, (h1, h2, h3), _ = star
    copies = []
    OpticalTap(sim, sw, copies.append)
    pkt = make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=1000)
    h1.send(pkt)
    sim.run()
    from repro.netsim.units import tx_time_ns
    delta = copies[1].timestamp_ns - copies[0].timestamp_ns
    # Uncongested switch: transit = serialisation only.
    assert delta == tx_time_ns(pkt.wire_len, mbps(100))


def test_tap_is_passive(sim, star):
    """Mirroring must not change delivery times on the primary path."""
    sw, (h1, h2, h3), _ = star
    h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=500))
    sim.run()
    t_without = sim.now

    sim2 = Simulator()
    sw2 = LegacySwitch(sim2, "sw")
    hosts2 = [Host(sim2, f"h{i}", f"10.0.0.{i}") for i in (1, 2, 3)]
    links2 = [connect(sim2, h, sw2, mbps(100), 100_000) for h in hosts2]
    for h, l in zip(hosts2, links2):
        sw2.add_route(h.ip, l.b)
    OpticalTap(sim2, sw2, lambda c: None)
    hosts2[0].send(make_data_packet(
        FiveTuple(hosts2[0].ip, hosts2[1].ip, 1, 2), seq=0, payload_len=500))
    sim2.run()
    assert sim2.now == t_without


def test_tap_restricted_egress_ports(sim, star):
    sw, (h1, h2, h3), links = star
    copies = []
    OpticalTap(sim, sw, copies.append, egress_ports=[links[1].b])  # only toward h2
    h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=10))
    h1.send(make_data_packet(FiveTuple(h1.ip, h3.ip, 1, 2), seq=0, payload_len=10))
    sim.run()
    egress = [c for c in copies if c.direction is TapDirection.EGRESS]
    ingress = [c for c in copies if c.direction is TapDirection.INGRESS]
    assert len(ingress) == 2  # ingress tap sees everything
    assert len(egress) == 1   # egress tap only the h2-facing port
    assert egress[0].pkt.dst_ip == h2.ip


def test_tap_fiber_delay_defers_copy_delivery(sim, star):
    sw, (h1, h2, h3), _ = star
    arrivals = []
    tap = OpticalTap(sim, sw, lambda c: arrivals.append((sim.now, c.timestamp_ns)),
                     fiber_delay_ns=5_000)
    h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=0, payload_len=10))
    sim.run()
    for arrived_at, stamped in arrivals:
        assert arrived_at == stamped + 5_000  # copy arrives late...
        # ...but carries the TAP-point timestamp.


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_delayed_copy_carries_ecn_of_its_tap_instant(sim, star, batched):
    """A queue CE-marks the shared Packet after both TAP instants but
    before the egress copy crosses the fibre: the monitor counts the
    codepoint the packet carried when it was mirrored, on either path."""
    sw, (h1, h2, h3), _ = star
    monitor = P4Monitor(MonitorConfig(batched_path=batched), sim=sim)
    assert (monitor.kernel is not None) is batched
    OpticalTap(sim, sw, monitor.receive_copy, fiber_delay_ns=50_000)

    def mark(copy):  # mirrored after the monitor's TAP, undelayed
        if copy.direction is TapDirection.EGRESS:
            copy.pkt.ecn = Packet.ECN_CE

    OpticalTap(sim, sw, mark)
    pkt = make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=1, payload_len=100)
    pkt.ecn = Packet.ECN_ECT0
    h1.send(pkt)
    sim.run()
    assert pkt.ecn == Packet.ECN_CE
    assert monitor.queue.pairs_matched == 1
    assert monitor.queue.flow_ce.snapshot().sum() == 0


def test_tap_rejects_foreign_egress_port(sim, star):
    sw, hosts, links = star
    other = LegacySwitch(sim, "other")
    port = other.new_port(mbps(10))
    with pytest.raises(ValueError):
        OpticalTap(sim, sw, lambda c: None, egress_ports=[port])


def test_tap_counts(sim, star):
    sw, (h1, h2, h3), _ = star
    tap = OpticalTap(sim, sw, lambda c: None)
    for i in range(3):
        h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=i, payload_len=10))
    sim.run()
    assert tap.copies_ingress == 3
    assert tap.copies_egress == 3


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
def test_monitor_counts_equal_the_taps_after_every_drain(sim, star, batched):
    """The fast mirrors leave the monitor's counts to the kernel, which
    counts each flush's records off their port lane: after every
    ``run_until`` drain the monitor has counted what the TAP mirrored and
    what its pipeline took in, non-TCP copies included."""
    sw, (h1, h2, h3), _ = star
    monitor = P4Monitor(MonitorConfig(batched_path=batched), sim=sim)
    tap = OpticalTap(sim, sw, monitor.receive_copy)
    assert (tap._fast_buf is not None) is batched
    for k in range(4):
        h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2),
                                 seq=1 + 100 * k, payload_len=100))
        h1.send(Packet(h1.ip, h3.ip, 3, 4, payload_len=50, proto=PROTO_UDP))
        sim.run_until((k + 1) * 10_000_000)
        assert (tap.copies_ingress, tap.copies_egress) == (2 * k + 2, 2 * k + 2)
        assert (monitor.copies_ingress, monitor.copies_egress) == (
            tap.copies_ingress, tap.copies_egress)
        assert (monitor.copies_ingress + monitor.copies_egress
                == monitor.pipeline.packets_in)
    assert monitor.pipeline.parser.rejected == 8


def test_switch_drop_accounting(sim):
    sw = LegacySwitch(sim, "sw")
    h1 = Host(sim, "h1", "10.0.0.1")
    h2 = Host(sim, "h2", "10.0.0.2")
    l1 = connect(sim, h1, sw, mbps(1000), 1000)
    # Very shallow egress queue toward h2 at a slow rate.
    l2 = connect(sim, sw, h2, mbps(1), 1000, queue_bytes_a=100)
    sw.add_route(h2.ip, l2.a)
    for i in range(10):
        h1.send(make_data_packet(FiveTuple(h1.ip, h2.ip, 1, 2), seq=i, payload_len=1000))
    sim.run()
    drops = sum(p.drops for p in sw.ports)
    assert drops > 0
    assert h2.rx_packets + drops == 10
