"""Offline replay: pcap captures through the monitor pipeline."""

import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.replay import OfflineAnalyzer
from repro.experiments.common import Scenario, ScenarioConfig
from repro.netsim.pcap import PcapCapture, write_pcap
from repro.netsim.tap import TapDirection
from repro.netsim.units import mbps


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """Run a small live scenario while capturing both TAP streams to
    pcap files; return (paths, live control plane) for comparison."""
    tmp = tmp_path_factory.mktemp("capture")
    ingress_cap, egress_cap = PcapCapture(), PcapCapture()

    def tee(copy):
        (ingress_cap if copy.direction is TapDirection.INGRESS else egress_cap
         ).from_mirror(copy)

    scenario = Scenario(ScenarioConfig(bottleneck_mbps=25.0,
                                       rtts_ms=(20.0, 30.0, 40.0),
                                       reference_rtt_ms=40.0),
                        with_perfsonar=False, copy_recorder=tee)
    scenario.add_flow(0, duration_s=6.0)
    scenario.run(8.0)

    ingress_path = tmp / "ingress.pcap"
    egress_path = tmp / "egress.pcap"
    ingress_cap.save(ingress_path)
    egress_cap.save(egress_path)
    return ingress_path, egress_path, scenario


def offline_config():
    return MonitorConfig(
        bottleneck_rate_bps=mbps(25),
        buffer_bytes=ScenarioConfig(bottleneck_mbps=25.0, reference_rtt_ms=40.0)
        .topology_config().buffer_bytes(),
    )


def test_offline_matches_live_flow_set(captured):
    ingress, egress, live = captured
    offline = OfflineAnalyzer(offline_config()).replay_pcap_pair(ingress, egress)
    assert set(offline.flows) == set(live.control_plane.flows)


def test_offline_matches_live_byte_counts(captured):
    ingress, egress, live = captured
    offline = OfflineAnalyzer(offline_config()).replay_pcap_pair(ingress, egress)
    for fid, live_flow in live.control_plane.flows.items():
        live_bytes = live.control_plane.runtime.read_register(
            "flow_bytes", live_flow.slot)
        off_bytes = offline.control_plane.runtime.read_register(
            "flow_bytes", offline.flows[fid].slot)
        assert off_bytes == live_bytes


def test_offline_produces_termination_report(captured):
    ingress, egress, live = captured
    offline = OfflineAnalyzer(offline_config()).replay_pcap_pair(ingress, egress)
    assert len(offline.terminations) == len(live.control_plane.terminations) == 1
    live_rep = live.control_plane.terminations[0]
    off_rep = offline.terminations[0]
    assert off_rep.total_bytes == live_rep.total_bytes
    assert off_rep.retransmissions == live_rep.retransmissions
    assert off_rep.duration_ns == live_rep.duration_ns


def test_offline_throughput_series_match(captured):
    ingress, egress, live = captured
    offline = OfflineAnalyzer(offline_config()).replay_pcap_pair(ingress, egress)
    fid = next(iter(live.control_plane.flows))
    live_series = dict(live.archiver.series("p4_throughput", fid))
    off_series = {s.time_ns / 1e9: s.value
                  for s in offline.control_plane.flow_samples[MetricKind.THROUGHPUT]
                  if s.flow_id == fid}
    shared = sorted(set(live_series) & set(off_series))
    assert len(shared) >= 4
    for t in shared:
        assert off_series[t] == pytest.approx(live_series[t], rel=0.01)


def test_offline_summary_renders(captured):
    ingress, egress, live = captured
    offline = OfflineAnalyzer(offline_config()).replay_pcap_pair(ingress, egress)
    text = offline.summary()
    assert "flows tracked:        1" in text
    assert "termination reports:  1" in text


def test_replay_empty_capture_is_noop():
    analyzer = OfflineAnalyzer(offline_config())
    analyzer.replay([])
    assert not analyzer.flows


def test_replay_rejects_unsorted_after_manual_clock():
    from repro.netsim.packet import FiveTuple, make_data_packet
    from repro.netsim.tap import MirrorCopy
    analyzer = OfflineAnalyzer(offline_config())
    pkt = make_data_packet(FiveTuple(1, 2, 3, 4), seq=0, payload_len=10)
    # replay() sorts its input, so the only way a record can move
    # backwards is against a clock somebody already advanced.
    analyzer.sim.run_until(100)
    with pytest.raises(ValueError):
        analyzer.replay([MirrorCopy(pkt, TapDirection.INGRESS, 50)])
