"""mmWave channel, CBR traffic, detectors and handover."""

import pytest

from repro.mmwave.channel import BlockageSchedule, MmWaveLink
from repro.mmwave.detectors import IatDetector, RssiDetector, ThroughputDetector
from repro.mmwave.handover import HandoverController
from repro.mmwave.traffic import CbrSender, ThroughputMeter
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.units import mbps, seconds


def make_link(sim, rate=mbps(500), **kw):
    tx = Host(sim, "tx", "10.9.0.1")
    rx = Host(sim, "rx", "10.9.0.2")
    link = MmWaveLink(sim, tx, rx, rate_bps=rate, seed=1, **kw)
    return tx, rx, link


def test_blockage_schedule_validation():
    BlockageSchedule([(0, 10), (20, 5)]).validate()
    with pytest.raises(ValueError):
        BlockageSchedule([(0, 10), (5, 10)]).validate()  # overlap
    with pytest.raises(ValueError):
        BlockageSchedule([(0, 0)]).validate()


def test_blocked_rate_fraction_bounds(sim):
    with pytest.raises(ValueError):
        make_link(sim, blocked_rate_fraction=0.0)


def test_rate_collapses_and_restores(sim):
    tx, rx, link = make_link(sim, rate=mbps(100), blocked_rate_fraction=0.1)
    link.schedule(BlockageSchedule([(seconds(1), seconds(2))]))
    sim.run_until(seconds(0.5))
    assert link.port_a.rate_bps == mbps(100)
    sim.run_until(seconds(1.5))
    assert link.blocked
    assert link.port_a.rate_bps == mbps(10)
    sim.run_until(seconds(3.5))
    assert not link.blocked
    assert link.port_a.rate_bps == mbps(100)


def test_steer_to_backup_restores_rate_during_blockage(sim):
    tx, rx, link = make_link(sim, rate=mbps(100))
    link.schedule(BlockageSchedule([(seconds(1), seconds(5))]))
    sim.run_until(seconds(2))
    link.steer_to_backup(0.9)
    assert link.port_a.rate_bps == mbps(90)
    # Unblocking returns to nominal.
    sim.run_until(seconds(7))
    assert link.port_a.rate_bps == mbps(100)


def test_steer_noop_when_unblocked(sim):
    tx, rx, link = make_link(sim)
    link.steer_to_backup()
    assert link.port_a.rate_bps == link.nominal_rate_bps


def test_rssi_drops_during_blockage(sim):
    tx, rx, link = make_link(sim, rssi_noise_db=0.5,
                             blockage_attenuation_db=25.0)
    clear = [link.rssi_dbm() for _ in range(100)]
    link._block()
    blocked = [link.rssi_dbm() for _ in range(100)]
    assert sum(clear) / 100 - sum(blocked) / 100 == pytest.approx(25.0, abs=1.0)


def test_cbr_sender_rate(sim):
    tx, rx, link = make_link(sim, rate=mbps(500))
    meter = ThroughputMeter(sim, rx)
    CbrSender(sim, tx, rx.ip, rate_bps=mbps(100), payload_len=8948,
              stop_ns=seconds(3))
    sim.run_until(seconds(3))
    assert meter.total_bytes * 8 / 3 == pytest.approx(mbps(100), rel=0.05)


def test_cbr_rejects_bad_rate(sim):
    tx, rx, link = make_link(sim)
    with pytest.raises(ValueError):
        CbrSender(sim, tx, rx.ip, rate_bps=0)


def test_meter_iat_matches_spacing(sim):
    tx, rx, link = make_link(sim, rate=mbps(1000))
    meter = ThroughputMeter(sim, rx)
    sender = CbrSender(sim, tx, rx.ip, rate_bps=mbps(100), payload_len=8948,
                       stop_ns=seconds(1))
    sim.run_until(seconds(1))
    iats = [iat for _, iat in meter.inter_arrival_times()]
    assert iats
    for iat in iats[2:]:
        assert iat == pytest.approx(sender.interval_ns, rel=0.02)


def test_iat_detector_fires_on_blockage(sim):
    tx, rx, link = make_link(sim, rate=mbps(1000), blocked_rate_fraction=0.01)
    controller = HandoverController(sim, link)
    det = IatDetector(sim, rx, controller)
    CbrSender(sim, tx, rx.ip, rate_bps=mbps(500), payload_len=8948,
              stop_ns=seconds(5))
    link.schedule(BlockageSchedule([(seconds(2), seconds(2))]))
    sim.run_until(seconds(5))
    assert det.triggered_at_ns is not None
    # Detection within a handful of inflated packet gaps.
    assert det.triggered_at_ns - seconds(2) < seconds(0.1)
    assert controller.records
    assert controller.records[0].reason == "iat"


def test_iat_detector_quiet_without_blockage(sim):
    tx, rx, link = make_link(sim, rate=mbps(1000))
    controller = HandoverController(sim, link)
    det = IatDetector(sim, rx, controller)
    CbrSender(sim, tx, rx.ip, rate_bps=mbps(500), payload_len=8948,
              stop_ns=seconds(4))
    sim.run_until(seconds(4))
    assert det.triggered_at_ns is None


def test_throughput_detector_latency_is_poll_bounded(sim):
    tx, rx, link = make_link(sim, rate=mbps(1000), blocked_rate_fraction=0.01)
    controller = HandoverController(sim, link)
    det = ThroughputDetector(sim, rx, controller, expected_rate_bps=mbps(500),
                             poll_interval_ns=seconds(0.5))
    CbrSender(sim, tx, rx.ip, rate_bps=mbps(500), payload_len=8948,
              stop_ns=seconds(6))
    link.schedule(BlockageSchedule([(seconds(2), seconds(3))]))
    sim.run_until(seconds(6))
    assert det.triggered_at_ns is not None
    latency = det.triggered_at_ns - seconds(2)
    assert seconds(0.25) <= latency <= seconds(1.5)


def test_rssi_detector_needs_consecutive_lows(sim):
    tx, rx, link = make_link(sim, rate=mbps(1000))
    controller = HandoverController(sim, link)
    det = RssiDetector(sim, link, controller, sample_interval_ns=seconds(0.1),
                       consecutive_required=5)
    link.schedule(BlockageSchedule([(seconds(2), seconds(3))]))
    sim.run_until(seconds(6))
    assert det.triggered_at_ns is not None
    assert det.triggered_at_ns - seconds(2) >= seconds(0.5)


def test_rssi_detector_noise_does_not_false_trigger(sim):
    tx, rx, link = make_link(sim, rssi_noise_db=3.0)
    controller = HandoverController(sim, link)
    det = RssiDetector(sim, link, controller)
    sim.run_until(seconds(10))
    assert det.triggered_at_ns is None


def test_handover_single_in_flight(sim):
    tx, rx, link = make_link(sim)
    controller = HandoverController(sim, link, switch_latency_ns=seconds(0.1))
    link.schedule(BlockageSchedule([(seconds(1), seconds(3))]))
    sim.run_until(seconds(1.5))
    controller.trigger("a", sim.now)
    controller.trigger("b", sim.now)  # ignored: one already in flight
    sim.run_until(seconds(2))
    assert len(controller.records) == 1
    assert controller.records[0].reason == "a"
    assert controller.records[0].triggered_ns is not None
