"""A restored tally is not new work.

A control plane, shipper and breaker restored from a checkpoint carry
their dead incarnation's tallies (deferred ticks, acks, transitions).
That incarnation's reads counted them as they happened, so the restored
components' reads must start from the restored values: a collect right
after the restore moves no counter.
"""

import json

from repro import telemetry
from repro.core.control_plane import MonitorControlPlane
from repro.core.reports import Alert, Block, Run
from repro.netsim.engine import Simulator
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import capture_checkpoint, restore_control_plane
from repro.resilience.delivery import ResilientShipper

from tests.core.helpers import small_monitor


def _stack(sim):
    breaker = CircuitBreaker(failure_threshold=1, success_threshold=1,
                             open_interval_ns=10)
    shipper = ResilientShipper(sim, lambda block: None, breaker=breaker)
    cp = MonitorControlPlane(sim, small_monitor(), report_sink=shipper)
    return cp, shipper, breaker


def _busy_checkpoint() -> dict:
    """A checkpoint whose every restored tally is nonzero."""
    sim = Simulator()
    cp, shipper, breaker = _stack(sim)
    for job in ("rtt", "throughput"):
        cp.ticks_deferred[job] = 3
        cp.catchup_ticks[job] = 1
    cp._suppress("FlowSample", 4)
    cp.alerts.history.append(Alert(time_ns=1, metric="rtt", flow_id=7,
                                    value=2.0, threshold=1.0))
    shipper(Block([Run(("type",), ("p4_rtt",))]))
    shipper.spool_overflow_total = 2
    breaker.record_failure(5)
    breaker.allow(20)
    assert shipper.acked_total == 1 and len(breaker.transitions) == 2
    return json.loads(json.dumps(capture_checkpoint(cp)))


def _moved() -> dict:
    """Every counter series that is not zero."""
    return {(fam["name"], tuple(s["labels"].values())): s["value"]
            for fam in telemetry.snapshot()["metrics"] if fam["type"] == "counter"
            for s in fam["series"] if s["value"]}


def test_a_restore_moves_no_counter():
    doc = _busy_checkpoint()
    telemetry.enable()
    cp, shipper, breaker = _stack(Simulator())
    restore_control_plane(cp, doc)
    shipper.restore_state(doc["shipper"])
    breaker.restore_state(doc["breaker"])
    assert (sum(cp.ticks_deferred.values()), cp.reports_suppressed,
            len(cp.alerts.history), shipper.acked_total,
            len(breaker.transitions)) == (6, 4, 1, 1, 2)

    assert _moved() == {}

    # What the restored components do from here on is counted.
    cp._suppress("LimiterReport")
    breaker.record_success(30)
    assert _moved() == {("repro_cp_reports_suppressed_total", ("LimiterReport",)): 1,
                        ("repro_breaker_transitions_total", ("closed",)): 1}
