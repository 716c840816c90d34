"""In-band Network Telemetry substrate (the related-work baseline)."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.packet import FiveTuple, Packet, make_ack_packet, make_data_packet
from repro.netsim.units import mbps, millis, seconds
from repro.p4.int import IntCollector, IntSink, IntTransitSwitch


@pytest.fixture
def int_path(sim):
    """a -- sw1 -- sw2 -- b, both switches in INT transit mode."""
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    sw1 = IntTransitSwitch(sim, "sw1", switch_id=1)
    sw2 = IntTransitSwitch(sim, "sw2", switch_id=2)
    # Access links outrun the inter-switch link so sw1's egress queues.
    l1 = connect(sim, a, sw1, mbps(400), 1000)
    lb = connect(sim, sw1, sw2, mbps(100), 1000)
    l2 = connect(sim, sw2, b, mbps(400), 1000)
    sw1.add_route(b.ip, lb.a)
    sw2.add_route(b.ip, l2.a)
    sw2.add_route(a.ip, lb.b)
    sw1.add_route(a.ip, l1.b)
    collector = IntCollector()
    IntSink(sim, b, collector)
    return a, b, sw1, sw2, collector


def ft(a, b):
    return FiveTuple(a.ip, b.ip, 1000, 2000)


def test_metadata_appended_per_hop(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    a.send(make_data_packet(ft(a, b), seq=0, payload_len=500))
    sim.run()
    assert len(collector) == 1
    postcard = collector.postcards[0]
    assert [h.switch_id for h in postcard.hops] == [1, 2]
    assert sw1.int_entries_written == 1
    assert sw2.int_entries_written == 1


def test_stack_stripped_before_application(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    seen = []
    b.set_stack(type("S", (), {"deliver": lambda self, p: seen.append(p)})())
    a.send(make_data_packet(ft(a, b), seq=0, payload_len=100))
    sim.run()
    assert seen[0].int_stack is None


def test_pure_acks_skipped_in_data_only_mode(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    a.send(make_ack_packet(ft(a, b), ack=100))
    sim.run()
    assert len(collector) == 0
    assert sw1.int_entries_written == 0


def test_wire_len_grows_per_hop():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=100)
    base = pkt.wire_len
    pkt.int_stack = ["hop1"]
    assert pkt.wire_len == base + Packet.INT_HOP_BYTES
    pkt.int_stack.append("hop2")
    assert pkt.wire_len == base + 2 * Packet.INT_HOP_BYTES


def test_queue_depth_reported_under_congestion(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    # Burst into sw1 so its bottleneck queue builds.
    for i in range(30):
        a.send(make_data_packet(ft(a, b), seq=i * 1000, payload_len=1000,
                                ip_id=i))
    sim.run()
    assert collector.max_queue_depth(1) > 0
    # Hop latency grows with position in the burst.
    latencies = [p.path_latency_ns for p in collector.postcards]
    assert latencies[-1] > latencies[0]


def test_per_switch_series_keyed_correctly(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    a.send(make_data_packet(ft(a, b), seq=0, payload_len=100))
    sim.run()
    assert set(collector.per_switch_queue) == {1, 2}


def test_overhead_accounting(sim, int_path):
    a, b, sw1, sw2, collector = int_path
    for i in range(3):
        a.send(make_data_packet(ft(a, b), seq=i * 100, payload_len=100, ip_id=i))
    sim.run()
    assert collector.telemetry_overhead_bytes() == 3 * 2 * Packet.INT_HOP_BYTES


def test_int_comparison_ablation_shape(monkeypatch):
    from repro.core.monitor import P4Monitor
    from repro.experiments.ablations import ablate_int_overhead

    monitors = []
    init = P4Monitor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        monitors.append(self)

    monkeypatch.setattr(P4Monitor, "__init__", recording_init)
    r = ablate_int_overhead(duration_s=4.0)
    # The TAP side runs the default data plane, not the scalar reference.
    assert [m.kernel is not None for m in monitors] == [True]
    assert r.tap_saw_queue and r.int_saw_queue    # both observe the queue
    assert r.tap_wire_overhead_bytes == 0         # passivity
    assert r.int_wire_overhead_bytes > 0          # INT pays on the wire
    assert r.int_goodput_bps < r.tap_goodput_bps  # ...out of goodput
    assert "passive TAP" in r.table()
