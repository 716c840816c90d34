"""Checkpoint-hook overhead budget.

The checkpoint hooks follow the construction-time-binding rule: with no
``CheckpointManager`` installed, ``MonitorControlPlane.__init__`` binds
``self._ckpt = None`` and every hook site — the end of the one
extraction envelope all six schedule jobs run through, and each digest
handler — pays one ``_checkpoint()`` call holding one ``is None`` test.

This benchmark drives the extraction-tick hot path (every job of the
schedule — the four metric classes, histograms, forensics — sweeping a
live flow at TICK_HZ) against a bare twin whose envelope is the same
body without the checkpoint call, so the measured delta is exactly the
hook, and holds the ratio within 2 % — the same budget the histogram,
forensics and resilience guards are held to.  A timed crash-recovery
chaos run rides along.
"""

from repro import telemetry
from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane
from repro.netsim.engine import Simulator
from repro.netsim.units import NS_PER_S
from repro.resilience import checkpoint, faults

from benchmarks.harness import assert_within, paired_median, timed
from tests.core.helpers import FlowScript, small_monitor

# Sim-seconds advanced per timed round.  Every job ticks at TICK_HZ, so
# one round is 6 x TICK_HZ x WINDOW_S extraction ticks.
TICK_HZ = 200.0
WINDOW_S = 2.0
# The residual hook delta is tens of ns against a ~10 us tick; paired
# rounds need enough samples for the median to settle under the noise.
ROUNDS = 16
DISABLED_BUDGET = 1.02


class BareControlPlane(MonitorControlPlane):
    """The extraction envelope as it runs with every optional subsystem
    off, minus the checkpoint call: each guard the real ``_tick`` tests
    on that path is tested here too, so the measured delta is the hook
    alone."""

    def _tick(self, job):
        if not self._running:
            return
        name = job.name
        self.monitor.flush()
        if (self._faults is not None or name in self._deferred_pending
                or self._prof is not None or self._tel_cycle_ns is not None):
            raise RuntimeError("the bare twin runs with every observer off")
        job.body()
        self.last_extraction_ns[name] = self.sim.now
        self._arm(job)


def _world(cp_cls):
    """One long flow's worth of register state under a fast-ticking
    control plane: every tick sweeps a live TrackedFlow the way the
    steady-state extraction path does."""
    sim = Simulator()
    monitor = small_monitor(
        histograms_enabled=True, histogram_samples_per_second=TICK_HZ,
        forensics_enabled=True, forensics_samples_per_second=TICK_HZ)
    cp = cp_cls(sim, monitor)
    for kind in MetricKind:
        cp.apply_metric_config(kind, samples_per_second=TICK_HZ)
    script = FlowScript(monitor)
    script.make_long()
    for i in range(8):
        t = 1_000_000 + i * 500_000
        script.transit(seq=1000 + i * 1448, length=1448,
                       t_in=t, t_out=t + 200_000)
        script.ack(ack=1000 + (i + 1) * 1448, t_ns=t + 400_000)
    cp.start()
    return sim, cp


def _advance(sim):
    sim.run_until(sim.now + int(WINDOW_S * NS_PER_S))


def _measure_disabled_ratio():
    """No manager installed, telemetry off: the guarded control plane
    (``_ckpt is None`` tested at the end of every tick) vs its
    pre-checkpoint twin, advanced through identical sim windows."""
    assert checkpoint.manager() is None
    assert faults.injector() is None and not telemetry.enabled()
    guarded_sim, guarded_cp = _world(MonitorControlPlane)
    bare_sim, bare_cp = _world(BareControlPlane)
    assert guarded_cp._ckpt is None  # disabled -> guard-only path
    assert len(guarded_cp.schedule) == len(bare_cp.schedule) == 6

    def reset():
        # Keep the working set flat: the local report archives grow a
        # round's worth of samples per window otherwise.
        for cp in (guarded_cp, bare_cp):
            for samples in cp.flow_samples.values():
                samples.clear()
            cp.aggregate_samples.clear()
            cp.jitter_samples.clear()
            cp.limiter_reports.clear()
            cp.histogram_reports.clear()

    ratio = paired_median(lambda: timed(_advance, guarded_sim),
                          lambda: timed(_advance, bare_sim), ROUNDS,
                          between=reset)
    guarded_cp.stop()
    bare_cp.stop()
    return ratio


def test_disabled_checkpoint_overhead_within_budget():
    assert_within(_measure_disabled_ratio, DISABLED_BUDGET,
                  "disabled-checkpoint extraction path vs bare twin (x)")


def test_crash_recovery_wall_time(once):
    """One full crash-recovery run (checkpointing on every destructive
    step + supervised kill/restart + exactly-once settle) end to end,
    timed."""
    from repro.resilience.chaos import bundled_chaos, run_crash_chaos, with_crash

    spec = with_crash(bundled_chaos()["archiver-outage"])
    result = once(run_crash_chaos, spec, run_twin=False)
    assert result.passed, result.summary()
    assert result.checkpoints_written > 0
