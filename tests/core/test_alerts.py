"""Alert threshold tracking and rate boosting."""

import pytest

from repro.core.alerts import AlertManager
from repro.core.config import MetricKind, MonitorConfig


def manager(threshold=50.0, kind=MetricKind.QUEUE_OCCUPANCY):
    cfg = MonitorConfig()
    mc = cfg.metric(kind)
    mc.alert_enabled = True
    mc.alert_threshold = threshold
    mc.boosted_samples_per_second = 10.0
    return AlertManager(cfg)


K = MetricKind.QUEUE_OCCUPANCY


def test_raise_on_exceed():
    mgr = manager()
    alert = mgr.check(K, flow_id=1, value=80.0, now_ns=100)
    assert alert is not None and not alert.cleared
    assert mgr.metric_boosted(K)


def test_no_duplicate_while_active():
    mgr = manager()
    mgr.check(K, 1, 80.0, 100)
    assert mgr.check(K, 1, 90.0, 200) is None
    assert len(mgr.history) == 1


def test_cleared_when_back_below():
    mgr = manager()
    mgr.check(K, 1, 80.0, 100)
    cleared = mgr.check(K, 1, 10.0, 200)
    assert cleared is not None and cleared.cleared
    assert not mgr.metric_boosted(K)
    assert len(mgr.history) == 2


def test_no_event_when_quiet():
    mgr = manager()
    assert mgr.check(K, 1, 10.0, 100) is None
    assert mgr.history == []


def test_disabled_metric_never_alerts():
    cfg = MonitorConfig()
    mgr = AlertManager(cfg)
    assert mgr.check(K, 1, 1e9, 100) is None


def test_per_flow_independence():
    mgr = manager()
    mgr.check(K, 1, 80.0, 100)
    mgr.check(K, 2, 80.0, 100)
    assert len(mgr.active_alerts) == 2
    mgr.check(K, 1, 0.0, 200)
    assert len(mgr.active_alerts) == 1
    assert mgr.metric_boosted(K)  # flow 2 still alerting


def test_boost_scoped_to_metric():
    mgr = manager()
    mgr.check(K, 1, 80.0, 100)
    assert not mgr.metric_boosted(MetricKind.RTT)


def test_drop_flow_clears_its_alerts():
    mgr = manager()
    mgr.check(K, 1, 80.0, 100)
    mgr.drop_flow(1)
    assert not mgr.metric_boosted(K)


def test_check_returns_each_transition_and_the_history_keeps_it():
    mgr = manager()
    events = [mgr.check(K, 1, 80.0, 100), mgr.check(K, 1, 1.0, 200)]
    assert [e.cleared for e in events] == [False, True]
    assert mgr.history == events


def test_threshold_is_strict_greater():
    mgr = manager(threshold=50.0)
    assert mgr.check(K, 1, 50.0, 100) is None
    assert mgr.check(K, 1, 50.001, 200) is not None
