"""Derived statistics (eq. 1 etc.), report documents, configuration."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import MetricConfig, MetricKind, MonitorConfig
from repro.core.reports import (
    AggregateSample,
    Alert,
    FlowSample,
    FlowTerminationReport,
    LimiterVerdict,
    MicroburstEvent,
)
from repro.core.stats import (
    coefficient_of_variation,
    jain_fairness,
    link_utilization,
    throughput_bps,
)
from repro.netsim.units import seconds


# -- Jain's fairness (paper eq. 1) ------------------------------------------


def test_jain_perfectly_fair():
    assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_hog():
    # One of N takes everything -> F = 1/N.
    assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_known_value():
    # (1+2+3)^2 / (3*(1+4+9)) = 36/42.
    assert jain_fairness([1, 2, 3]) == pytest.approx(36 / 42)


def test_jain_degenerate_cases():
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0


def test_jain_rejects_negative():
    with pytest.raises(ValueError):
        jain_fairness([1, -1])


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=20).filter(lambda xs: sum(xs) > 0))
def test_property_jain_bounds(xs):
    f = jain_fairness(xs)
    assert 1.0 / len(xs) - 1e-9 <= f <= 1.0 + 1e-9


@given(st.floats(min_value=0.001, max_value=1e6), st.integers(2, 10))
def test_property_jain_scale_invariant(x, n):
    assert jain_fairness([x] * n) == pytest.approx(1.0)


# -- utilisation / cv / throughput -----------------------------------------


def test_link_utilization_math():
    # 12.5 MB in 1 s on 100 Mb/s = 1.0.
    assert link_utilization([12_500_000], seconds(1), 100_000_000) == pytest.approx(1.0)


def test_link_utilization_clamped():
    assert link_utilization([10**12], seconds(1), 1000) == 1.5


def test_link_utilization_validates():
    with pytest.raises(ValueError):
        link_utilization([1], 0, 100)
    with pytest.raises(ValueError):
        link_utilization([1], 100, 0)


def test_cv_constant_is_zero():
    assert coefficient_of_variation([5, 5, 5]) == 0.0
    assert coefficient_of_variation([7]) == 0.0
    assert coefficient_of_variation([0, 0]) == 0.0


def test_cv_known():
    assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)


def test_throughput_bps():
    assert throughput_bps(1_250_000, seconds(1)) == pytest.approx(10_000_000)
    assert throughput_bps(100, 0) == 0.0


# -- reports -----------------------------------------------------------------


def test_flow_sample_document():
    s = FlowSample(time_ns=seconds(2), metric="throughput", flow_id=7,
                   src_ip=0x0A00000A, dst_ip=0x0A01000A,
                   src_port=1, dst_port=2, value=5e6)
    doc = s.to_document()
    assert doc["type"] == "p4_throughput"
    assert doc["@timestamp"] == 2.0
    assert doc["source_ip"] == "10.0.0.10"
    assert doc["value"] == 5e6


def test_termination_report_derived_fields():
    r = FlowTerminationReport(
        flow_id=1, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
        start_ns=seconds(1), end_ns=seconds(3),
        total_packets=200, total_bytes=2_500_000, retransmissions=10,
    )
    assert r.duration_ns == seconds(2)
    assert r.avg_throughput_bps == pytest.approx(10_000_000)
    assert r.retransmission_pct == pytest.approx(5.0)
    doc = r.to_document()
    assert doc["type"] == "p4_flow_termination"
    assert doc["duration_s"] == pytest.approx(2.0)


def test_termination_report_zero_guards():
    r = FlowTerminationReport(1, 1, 2, 3, 4, start_ns=5, end_ns=5,
                              total_packets=0, total_bytes=0, retransmissions=0)
    assert r.avg_throughput_bps == 0.0
    assert r.retransmission_pct == 0.0


def test_microburst_document():
    b = MicroburstEvent(start_ns=123, duration_ns=456, peak_queue_delay_ns=789,
                        peak_occupancy=0.9, packets=10)
    doc = b.to_document()
    assert doc["start_ns"] == 123 and doc["duration_ns"] == 456


def test_alert_document_raised_vs_cleared():
    a = Alert(time_ns=1, metric="rtt", flow_id=5, value=9.0, threshold=5.0)
    assert a.to_document()["event"] == "raised"
    c = Alert(time_ns=2, metric="rtt", flow_id=5, value=1.0, threshold=5.0,
              cleared=True)
    assert c.to_document()["event"] == "cleared"


def test_aggregate_document():
    a = AggregateSample(time_ns=seconds(1), link_utilization=0.9,
                        jain_fairness=0.8, active_flows=3,
                        total_bytes=100, total_packets=10)
    doc = a.to_document()
    assert doc["type"] == "p4_aggregate"
    assert doc["jain_fairness"] == 0.8


# -- configuration -------------------------------------------------------------


def test_metric_kind_from_cli_spellings():
    assert MetricKind.from_cli("RTT") is MetricKind.RTT
    assert MetricKind.from_cli("throughput") is MetricKind.THROUGHPUT
    assert MetricKind.from_cli("queue_occupancy") is MetricKind.QUEUE_OCCUPANCY
    with pytest.raises(ValueError):
        MetricKind.from_cli("jitter")


def test_metric_interval_math():
    mc = MetricConfig(samples_per_second=2.0, boosted_samples_per_second=10.0)
    assert mc.interval_ns() == seconds(0.5)
    assert mc.interval_ns(boosted=True) == seconds(0.1)
    # Boost not configured -> same as base.
    assert MetricConfig(samples_per_second=1.0).interval_ns(boosted=True) == seconds(1.0)


def test_metric_interval_rejects_nonpositive():
    with pytest.raises(ValueError):
        MetricConfig(samples_per_second=0).interval_ns()


def test_config_validation():
    MonitorConfig().validate()  # defaults are valid
    with pytest.raises(ValueError):
        MonitorConfig(flow_slots=1000).validate()  # not a power of two
    with pytest.raises(ValueError):
        MonitorConfig(bottleneck_rate_bps=0).validate()
    bad = MonitorConfig()
    bad.metrics[MetricKind.RTT].alert_enabled = True
    with pytest.raises(ValueError):
        bad.validate()
    # One sample has no variation; the classifier keeps sixteen.
    for window in (2, 16):
        MonitorConfig(limiter_window=window).validate()
    for window in (1, 17):
        with pytest.raises(ValueError, match=r"limiter_window must be in 2\.\.16"):
            MonitorConfig(limiter_window=window).validate()


def test_a_knob_nobody_set_is_not_an_option():
    """The 14 fields no caller ever set are constants beside their
    reader (core/rtt.py, queue_monitor.py, microburst.py, histograms.py,
    forensics.py, limiter.py); the config holds what something sets."""
    import dataclasses

    assert len(dataclasses.fields(MonitorConfig)) == 31
    with pytest.raises(TypeError):
        MonitorConfig(cms_conservative=True)
    with pytest.raises(TypeError):
        MonitorConfig(rtt_hist_scale="linear")


def test_max_queue_delay():
    cfg = MonitorConfig(bottleneck_rate_bps=100_000_000, buffer_bytes=125_000)
    assert cfg.max_queue_delay_ns() == 10_000_000  # 10 ms


def test_config_copy_is_deep_for_metrics():
    cfg = MonitorConfig()
    dup = cfg.copy()
    dup.metrics[MetricKind.RTT].samples_per_second = 99
    assert cfg.metrics[MetricKind.RTT].samples_per_second == 1.0
