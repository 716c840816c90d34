"""Failure injection: the monitor must degrade gracefully, never crash
or fabricate data, when its own mirror path is lossy."""

import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.tap import OpticalTap
from repro.netsim.topology import TopologyConfig, build_science_dmz
from repro.netsim.units import mbps
from repro.perfsonar.archiver import Archiver
from repro.tcp.apps import start_transfer
from repro.tcp.stack import TcpHostStack


def run_with_mirror_loss(loss_rate: float):
    sim = Simulator()
    cfg = TopologyConfig(bottleneck_bps=mbps(25), rtts_ms=(20.0, 30.0, 40.0),
                         reference_rtt_ms=40.0)
    topo = build_science_dmz(sim, cfg)
    monitor = P4Monitor(MonitorConfig(
        bottleneck_rate_bps=cfg.bottleneck_bps,
        buffer_bytes=cfg.buffer_bytes(),
    ), sim=sim)
    tap = OpticalTap(sim, topo.core_switch, monitor.receive_copy,
                     egress_ports=[topo.bottleneck_port],
                     copy_loss_rate=loss_rate, seed=13)
    cp = MonitorControlPlane(sim, monitor, report_sink=Archiver().sink)
    cp.start()
    cstack = TcpHostStack(sim, topo.internal_dtn, default_mss=cfg.mss)
    sstack = TcpHostStack(sim, topo.external_dtns[0], default_mss=cfg.mss)
    client, server = start_transfer(sim, cstack, sstack,
                                    topo.external_dtns[0].ip, duration_s=6.0)
    sim.run_until(8 * 10**9)
    return sim, tap, monitor, cp, client


def test_tap_loss_rate_validated(sim):
    from repro.netsim.switch import LegacySwitch
    sw = LegacySwitch(sim, "sw")
    with pytest.raises(ValueError):
        OpticalTap(sim, sw, lambda c: None, copy_loss_rate=1.0)
    with pytest.raises(ValueError):
        OpticalTap(sim, sw, lambda c: None, copy_loss_rate=-0.1)


def test_primary_path_unaffected_by_mirror_loss():
    _, tap, _, _, client = run_with_mirror_loss(0.5)
    assert tap.copies_lost > 0
    # The transfer itself completed at full quality.
    assert client.done
    assert client.stats.bytes_acked > 5_000_000


def test_monitor_still_tracks_flow_under_mirror_loss():
    _, tap, monitor, cp, client = run_with_mirror_loss(0.3)
    assert len(cp.flows) >= 1
    thr = [s.value for s in cp.flow_samples[MetricKind.THROUGHPUT]]
    assert thr
    # Byte counts are *undercounted* (missing copies), never inflated.
    flow = next(iter(cp.flows.values()))
    seen = cp.runtime.read_register("flow_bytes", flow.slot)
    assert seen < client.stats.bytes_sent * 1.1


def test_rtt_hit_rate_degrades_gracefully():
    results = {}
    for loss in (0.0, 0.3):
        _, _, monitor, _, _ = run_with_mirror_loss(loss)
        stage = monitor.rtt_loss
        total = stage.rtt_matches + stage.rtt_misses
        results[loss] = stage.rtt_matches / total if total else 0.0
    assert results[0.3] < results[0.0]
    assert results[0.3] > 0.1  # still produces samples


def test_queue_pairing_copes_with_missing_halves():
    _, _, monitor, cp, _ = run_with_mirror_loss(0.3)
    q = monitor.queue
    # Missing ingress copies show up as misses, not bogus delays.
    assert q.pairs_missed > 0
    assert q.pairs_matched > 0
    for s in cp.flow_samples[MetricKind.QUEUE_OCCUPANCY]:
        assert 0.0 <= s.value <= 150.0  # physically plausible values only
