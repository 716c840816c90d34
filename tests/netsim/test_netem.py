"""Impairments: loss, delay, reordering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.netem import DelayImpairment, LossImpairment, ReorderImpairment
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.units import mbps


def test_loss_rate_zero_passes_everything():
    imp = LossImpairment(0.0)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    assert all(imp.process(pkt) == 0 for _ in range(100))
    assert imp.dropped == 0


def test_loss_rate_one_drops_everything():
    imp = LossImpairment(1.0)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    assert all(imp.process(pkt) is None for _ in range(100))


def test_loss_deterministic_under_seed():
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    a = LossImpairment(0.3, seed=42)
    b = LossImpairment(0.3, seed=42)
    va = [a.process(pkt) for _ in range(200)]
    vb = [b.process(pkt) for _ in range(200)]
    assert va == vb


def test_loss_observed_rate_tracks_configured():
    imp = LossImpairment(0.25, seed=1)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    for _ in range(20_000):
        imp.process(pkt)
    assert imp.dropped / 20_000 == pytest.approx(0.25, abs=0.02)


def test_data_only_spares_acks():
    imp = LossImpairment(1.0, data_only=True)
    ack = make_ack_packet(FiveTuple(1, 2, 3, 4), ack=100)
    data = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    assert imp.process(ack) == 0
    assert imp.process(data) is None


def test_loss_rate_bounds():
    with pytest.raises(ValueError):
        LossImpairment(-0.1)
    with pytest.raises(ValueError):
        LossImpairment(1.1)


def test_delay_fixed():
    imp = DelayImpairment(5000)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    assert imp.process(pkt) == 5000


def test_delay_jitter_within_bounds():
    imp = DelayImpairment(1000, jitter_ns=500, seed=3)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    for _ in range(500):
        d = imp.process(pkt)
        assert 1000 <= d <= 1500


def test_delay_rejects_negative():
    with pytest.raises(ValueError):
        DelayImpairment(-1)


def test_reorder_counts():
    imp = ReorderImpairment(1.0, extra_delay_ns=100, seed=0)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    assert imp.process(pkt) == 100
    assert imp.reordered == 1


def test_impairment_on_link_drops_in_flight(sim):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = connect(sim, a, b, mbps(100), 1000)
    link.impairments.append(LossImpairment(1.0))
    a.send(make_data_packet(FiveTuple(a.ip, b.ip, 1, 2), seq=0, payload_len=10))
    sim.run()
    assert b.rx_packets == 0


def test_delay_impairment_on_link_shifts_arrival(sim):
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = connect(sim, a, b, mbps(100), 1000)
    link.impairments.append(DelayImpairment(9000))
    pkt = make_data_packet(FiveTuple(a.ip, b.ip, 1, 2), seq=0, payload_len=100)
    a.send(pkt)
    sim.run()
    from repro.netsim.units import tx_time_ns
    assert sim.now == tx_time_ns(pkt.wire_len, mbps(100)) + 1000 + 9000


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**31))
@settings(max_examples=25)
def test_property_loss_counters_consistent(rate, seed):
    imp = LossImpairment(rate, seed=seed)
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    n = 300
    for _ in range(n):
        imp.process(pkt)
    assert imp.dropped + imp.passed == n
