"""Control plane: extraction ticks, derived metrics, alerts, lifecycle.

Driven with scripted packets (no TCP), so every expected value is exact.
"""

import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, TCPFlags
from repro.netsim.units import mbps, millis, seconds
from repro.perfsonar.archiver import Archiver

from tests.core.helpers import FT, FlowScript, document_sink, small_monitor


@pytest.fixture
def assembly():
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon, report_sink=Archiver().sink)
    cp.start()
    return sim, mon, cp


def drive_stream(sim, script, rate_bytes_per_s, duration_s, seg=1000, start_s=0.1):
    """Schedule a steady scripted data stream + immediate ACKs."""
    interval_ns = int(seg / rate_bytes_per_s * 1e9)
    n = int(duration_s * rate_bytes_per_s / seg)
    t0 = seconds(start_s)
    seq = 1
    for i in range(n):
        t = t0 + i * interval_ns
        sim.at(t, script.data, seq, seg, t)
        sim.at(t + millis(5), script.ack, seq + seg, t + millis(5))
        seq += seg


def test_flow_learned_from_digest(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.1), script.make_long, seconds(0.1))
    sim.run_until(seconds(0.2))
    assert len(cp.flows) == 1
    flow = next(iter(cp.flows.values()))
    assert flow.flow_id == script.flow_id
    assert flow.rev_flow_id == script.rev_flow_id
    assert flow.dst_ip == FT.dst_ip


def test_throughput_samples_match_offered_rate(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    drive_stream(sim, script, rate_bytes_per_s=500_000, duration_s=4.0)
    sim.run_until(seconds(4))
    series = [s.value for s in cp.flow_samples[MetricKind.THROUGHPUT] if s.value > 0]
    # Steady samples ~ 4 Mbps (IP header overhead adds a few %).
    settled = series[1:-1]
    assert settled
    for v in settled:
        assert v == pytest.approx(4_000_000, rel=0.15)


def test_rtt_samples_use_reverse_id(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    drive_stream(sim, script, rate_bytes_per_s=200_000, duration_s=3.0)
    sim.run_until(seconds(3))
    rtts = [s.value for s in cp.flow_samples[MetricKind.RTT]]
    assert rtts
    for v in rtts:
        assert v == pytest.approx(5.0, rel=0.05)  # the scripted 5 ms


def test_loss_percentage(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    # 100 packets in the first second, 10 of them retransmissions.
    t0 = seconds(0.1)
    seq = 1
    for i in range(100):
        t = t0 + i * millis(5)
        if i % 10 == 9:
            sim.at(t, script.data, 1, 500, t)  # regressed seq
        else:
            sim.at(t, script.data, seq, 500, t)
            seq += 500
    sim.run_until(seconds(2))
    loss = [s.value for s in cp.flow_samples[MetricKind.PACKET_LOSS] if s.value > 0]
    assert loss
    assert loss[0] == pytest.approx(10.0, rel=0.3)


def test_queue_occupancy_peak_hold_and_clear(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    sim.at(seconds(0.1), script.make_long, seconds(0.1))
    # One 8 ms excursion inside the first interval (max delay is 10 ms).
    sim.at(seconds(0.5), script.transit, 5000, 100, seconds(0.5), seconds(0.5) + millis(8))
    sim.run_until(seconds(2.5))
    qocc = [s.value for s in cp.flow_samples[MetricKind.QUEUE_OCCUPANCY]]
    assert qocc[0] == pytest.approx(80.0, rel=0.05)
    # Peak-hold cleared after the read; later samples are 0.
    assert qocc[1] == 0.0


def test_aggregate_utilization_and_fairness(assembly):
    sim, mon, cp = assembly
    s1 = FlowScript(mon, FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201))
    s2 = FlowScript(mon, FiveTuple(0x0A00000A, 0x0A02000A, 40001, 5201))
    drive_stream(sim, s1, 500_000, 3.0)
    drive_stream(sim, s2, 500_000, 3.0)
    sim.run_until(seconds(3))
    agg = cp.aggregate_samples
    mid = agg[1]
    assert mid.active_flows == 2
    # 2 x 4 Mbps on a 100 Mb/s reference -> ~0.08 utilisation.
    assert mid.link_utilization == pytest.approx(0.08, rel=0.2)
    assert mid.jain_fairness == pytest.approx(1.0, abs=0.01)


def test_alert_raises_and_boosts_interval(assembly):
    sim, mon, cp = assembly
    cp.apply_metric_config(MetricKind.THROUGHPUT, alert_enabled=True,
                           alert_threshold=1_000_000.0,
                           boosted_samples_per_second=10.0)
    script = FlowScript(mon)
    drive_stream(sim, script, 500_000, 4.0)  # 4 Mbps > 1 Mbps threshold
    sim.run_until(seconds(4))
    raised = [a for a in cp.alerts.history if not a.cleared]
    assert raised and raised[0].metric == "throughput"
    # Boosted rate -> many more than 4 throughput samples.
    assert len(cp.flow_samples[MetricKind.THROUGHPUT]) > 10


def test_alert_clears_when_flow_slows(assembly):
    sim, mon, cp = assembly
    cp.apply_metric_config(MetricKind.THROUGHPUT, alert_enabled=True,
                           alert_threshold=1_000_000.0,
                           boosted_samples_per_second=5.0)
    script = FlowScript(mon)
    drive_stream(sim, script, 500_000, 2.0)  # then silence
    sim.run_until(seconds(5))
    cleared = [a for a in cp.alerts.history if a.cleared]
    assert cleared


def test_idle_flow_evicted(assembly):
    sim, mon, cp = assembly
    cp.config.idle_intervals_before_evict = 3
    script = FlowScript(mon)
    sim.at(seconds(0.1), script.make_long, seconds(0.1))
    sim.run_until(seconds(6))
    flow = next(iter(cp.flows.values()))
    assert flow.terminated
    # Slot released in the data plane.
    assert mon.flow_table.flow_key.read(flow.slot) == 0


def test_termination_report_includes_retransmissions(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)

    def play():
        now = sim.now
        script.data(1, 2000, now)
        script.data(2001, 1000, now + millis(1))
        script.data(1, 2000, now + millis(2))       # retransmission
        script.data(3001, 0, now + millis(3), flags=TCPFlags.FIN | TCPFlags.ACK)

    sim.at(seconds(0.5), play)
    sim.run_until(seconds(1))
    assert len(cp.terminations) == 1
    report = cp.terminations[0]
    assert report.retransmissions == 1
    assert report.total_packets == 4
    assert report.start_ns == seconds(0.5)
    assert report.end_ns == seconds(0.5) + millis(3)


def test_microburst_digest_becomes_event(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)

    def play():
        t = sim.now
        script.transit(1, 100, t, t + millis(6))
        script.transit(101, 100, t + millis(7), t + millis(8))

    sim.at(seconds(0.2), play)
    sim.run_until(seconds(0.5))
    assert len(cp.microbursts) == 1
    event = cp.microbursts[0]
    assert event.peak_occupancy == pytest.approx(0.6, rel=0.01)


def test_reconfiguration_changes_rate(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    drive_stream(sim, script, 500_000, 4.0)
    sim.at(seconds(2), cp.apply_metric_config, MetricKind.THROUGHPUT, 10.0)
    sim.run_until(seconds(4))
    samples = cp.flow_samples[MetricKind.THROUGHPUT]
    first_half = [s for s in samples if s.time_ns < seconds(2)]
    second_half = [s for s in samples if s.time_ns >= seconds(2)]
    assert len(second_half) > 3 * max(1, len(first_half))


def test_apply_metric_config_validates(assembly):
    sim, mon, cp = assembly
    with pytest.raises(ValueError):
        cp.apply_metric_config(MetricKind.RTT, samples_per_second=0)


def test_stop_halts_ticks(assembly):
    sim, mon, cp = assembly
    script = FlowScript(mon)
    drive_stream(sim, script, 500_000, 3.0)
    sim.at(seconds(1.5), cp.stop)
    sim.run_until(seconds(4))
    assert all(s.time_ns <= seconds(1.6)
               for s in cp.flow_samples[MetricKind.THROUGHPUT])


def test_report_sink_receives_documents():
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    docs = []
    cp = MonitorControlPlane(sim, mon, report_sink=document_sink(docs))
    cp.start()
    script = FlowScript(mon)
    drive_stream(sim, script, 500_000, 2.0)
    sim.run_until(seconds(2))
    types = {d["type"] for d in docs}
    assert "p4_throughput" in types
    assert "p4_aggregate" in types
    assert "p4_rtt" in types


def _streamed(report_sink, duration_s=2.0):
    sim = Simulator()
    mon = small_monitor(long_flow_bytes=1000)
    cp = MonitorControlPlane(sim, mon, report_sink=report_sink)
    cp.start()
    drive_stream(sim, FlowScript(mon), 500_000, duration_s)
    sim.run_until(seconds(duration_s))
    return cp


def test_tallies_count_what_the_sink_was_handed_not_what_it_kept():
    """A sink that drops every block leaves the tallies counting what it
    was handed and the views empty, so the archive's own document
    counter and the tallies stay two independent counts."""
    archiver = Archiver()
    kept, dropped = _streamed(archiver.sink), _streamed(lambda block: None)
    assert dropped.archive is None and kept.archive is archiver
    assert +dropped.tallies == +kept.tallies
    assert len(dropped.flow_samples[MetricKind.THROUGHPUT]) > 1
    assert dropped.aggregate_samples and not list(dropped.aggregate_samples)
    assert all(list(log) == [] for log in dropped.flow_samples.values())
    assert archiver.output.documents_written == sum(kept.tallies.values())
    assert _streamed(None).tallies.total() == 0
