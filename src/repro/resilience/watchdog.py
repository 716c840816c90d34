"""Extraction-tick watchdog.

A stalled control plane (GC pause, contended runtime API, or the chaos
harness's ``cp_stall`` fault) stops reading registers on schedule; the
byte/loss deltas then span more than one configured interval, and naive
``delta / t_N`` arithmetic would mis-window throughput and loss rates.
The control plane itself windows every rate over the *actual* elapsed
time since its last extraction and consolidates missed ticks into one
bounded catch-up tick (see
:meth:`~repro.core.control_plane.MonitorControlPlane._tick_throughput`);
this watchdog is the detector that makes stalls visible: it samples
``last_extraction_ns`` for every job of the control plane's extraction
schedule (the four metric classes plus the histogram and forensics
extractors when present) on an independent timer and counts/logs stall
episodes and recoveries, exporting both through the
telemetry registry so ``watch`` shows a stalled extractor immediately.

The staleness verdict is deliberately computed on the *monotonic* sim
clock: a ``clock_skew`` fault offsets report (wall-clock) timestamps,
and a watchdog that compared skewed wall time against the deadline
would raise spurious stall verdicts during every skew window.  The
watchdog binds the installed fault injector at construction purely to
*count* those near-misses (``skew_suppressed``), so chaos runs can
assert the suppression actually engaged.
"""

from __future__ import annotations

import logging
from typing import Dict, Set

from repro import telemetry
from repro.telemetry import hooks

log = logging.getLogger("repro.resilience.watchdog")


class ExtractionWatchdog:
    """Periodic staleness check over the control plane's extraction ticks."""

    def __init__(self, sim, control_plane, check_interval_ns: int = 0,
                 stall_factor: float = 2.5) -> None:
        if stall_factor <= 1.0:
            raise ValueError("stall_factor must exceed 1")
        self.sim = sim
        self.control_plane = control_plane
        self.stall_factor = stall_factor
        if check_interval_ns <= 0:
            check_interval_ns = min(
                job.base_interval_ns()
                for job in control_plane.schedule.values())
        self.check_interval_ns = check_interval_ns
        # Keyed by schedule job name.
        self.stalls: Dict[str, int] = dict.fromkeys(control_plane.schedule, 0)
        self.recoveries: Dict[str, int] = dict.fromkeys(control_plane.schedule, 0)
        self._stalled_now: Set[str] = set()
        # Checks where the skewed wall-clock view exceeded the deadline
        # but the monotonic view did not — the false stall verdicts the
        # monotonic discipline suppressed.
        self.skew_suppressed = 0
        self._faults = hooks.injector
        self._timer = sim.every(check_interval_ns, self._check)
        telemetry.reads(self, counters=[
            ("repro_watchdog_stalls_total",
             "extraction-tick stall episodes detected, per extraction job",
             ("metric",), lambda: self.stalls),
            ("repro_watchdog_skew_suppressed_total",
             "stall verdicts that would have fired on the skewed wall clock "
             "but not on the monotonic clock", (), lambda: self.skew_suppressed),
        ], gauges=[
            ("repro_watchdog_stalled_metrics",
             "metric classes currently past their stall deadline",
             (), lambda: len(self._stalled_now)),
        ])

    def _deadline_ns(self, job) -> int:
        scale = self.control_plane.interval_scale
        return int(job.base_interval_ns() * scale * self.stall_factor)

    def _check(self) -> None:
        cp = self.control_plane
        now = self.sim.now
        skew = self._faults.clock_skew_ns() if self._faults is not None else 0
        for name, job in cp.schedule.items():
            last = cp.last_extraction_ns.get(name)
            if last is None:
                continue
            deadline = self._deadline_ns(job)
            if skew and now - last <= deadline and (now + skew) - last > deadline:
                self.skew_suppressed += 1
            if now - last > deadline:
                if name not in self._stalled_now:
                    self._stalled_now.add(name)
                    self.stalls[name] += 1
                    log.warning(
                        "extraction stall: %s last ticked %.3fs ago at "
                        "t=%.3fs", name, (now - last) / 1e9, now / 1e9)
            elif name in self._stalled_now:
                self._stalled_now.discard(name)
                self.recoveries[name] += 1
                log.info("extraction recovered: %s at t=%.3fs",
                         name, now / 1e9)

    @property
    def stalled_metrics(self) -> Set[str]:
        """Names of the schedule jobs currently past their deadline."""
        return set(self._stalled_now)

    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())

    def cancel(self) -> None:
        self._timer.cancel()
