"""The extraction envelope is written once: every job of the control
plane's schedule shows the same observable sequence through a stall
window, the consolidated catch-up tick and a normal tick, with
telemetry, the block profiler and a checkpoint manager all live."""

import pytest

from repro import telemetry
from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import seconds
from repro.resilience import checkpoint
from repro.resilience.faults import FaultInjector, install
from repro.resilience.schedule import FaultSchedule, FaultWindow
from repro.telemetry import profiling

from tests.core.helpers import small_monitor

JOBS = [k.value for k in MetricKind] + ["histograms", "forensics"]
BASE = seconds(0.25)


def _series(snapshot, family, name):
    """The ``metric=name`` series of one family, or None."""
    for metric in snapshot["metrics"]:
        if metric["name"] == family:
            for series in metric["series"]:
                if series["labels"]["metric"] == name:
                    return series
    return None


@pytest.mark.parametrize("name", JOBS)
def test_every_job_runs_the_same_envelope(name, tmp_path):
    # The job under test ticks at 4 Hz, the other five at 1 Hz, so
    # everything observed before t=1 s belongs to it alone.
    sim = Simulator()
    install(FaultInjector(
        FaultSchedule(seed=1, windows=[
            FaultWindow("cp_stall", 0.2, 0.4, metric=name)]),
        clock=lambda: sim.now))
    manager = checkpoint.install_manager(checkpoint.CheckpointManager(
        checkpoint.CheckpointStore(str(tmp_path))))
    telemetry.enable()
    prof = profiling.enable(mode="phase")
    try:
        cp = MonitorControlPlane(sim, small_monitor(
            histograms_enabled=True, forensics_enabled=True,
            histogram_samples_per_second=4.0 if name == "histograms" else 1.0,
            forensics_samples_per_second=4.0 if name == "forensics" else 1.0))
    finally:
        profiling.disable()
    assert list(cp.schedule) == JOBS
    if name not in ("histograms", "forensics"):
        cp.apply_metric_config(MetricKind(name), samples_per_second=4.0)
    cp.start()
    job = cp.schedule[name]
    frame = "cp.extract/" + name

    def observed():
        snap = telemetry.snapshot()
        row = prof.report().row(frame)
        return {
            "deferred": (_series(snap, "repro_cp_tick_deferred_total", name)
                         or {"value": 0})["value"],
            "catchup": (_series(snap, "repro_cp_tick_catchup_total", name)
                        or {"value": 0})["value"],
            "timed": (_series(snap, "repro_cp_extraction_ns", name)
                      or {"count": 0})["count"],
            "frames": row.count if row is not None else 0,
            "checkpoints": manager.captures,
            "armed_in": job.timer.time_ns - sim.now,
        }

    # Two ticks inside the stall window: deferred, nothing executed,
    # nothing checkpointed, re-armed at the base interval.
    sim.run_until(seconds(0.6))
    assert observed() == {"deferred": 2, "catchup": 0, "timed": 0,
                          "frames": 0, "checkpoints": 0,
                          "armed_in": seconds(0.75) - sim.now}
    assert cp.ticks_deferred[name] == 2

    # The first tick after the window is one consolidated catch-up.
    sim.run_until(seconds(0.9))
    assert observed() == {"deferred": 2, "catchup": 1, "timed": 1,
                          "frames": 1, "checkpoints": 1,
                          "armed_in": seconds(1.0) - sim.now}
    assert cp.catchup_ticks[name] == 1
    assert cp.last_extraction_ns[name] == seconds(0.75)

    # A normal tick, degraded: re-armed at base x interval_scale.
    cp.set_degraded(True, interval_scale=1.4)
    assert job.timer.time_ns - sim.now == int(BASE * 1.4)
    sim.run_until(sim.now + int(BASE * 1.4))
    assert observed() == {"deferred": 2, "catchup": 1, "timed": 2,
                          "frames": 2, "checkpoints": 2,
                          "armed_in": int(BASE * 1.4)}
    assert cp.catchup_ticks[name] == 1
    cp.stop()
    assert job.timer is None
