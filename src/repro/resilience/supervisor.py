"""Supervised crash recovery for the control plane.

The chaos harness's ``cp_crash`` fault marks wall-clock windows during
which the control-plane *process* is dead: the supervisor probes on an
independent timer, and when a probe lands inside a crash window it
kills the running control-plane stack (stop extraction, cancel the
watchdog, close the shipper — exactly what dies with a real process)
and schedules a restart.  Restart attempts back off exponentially;
an attempt that lands while the crash window still holds fails (the
freshly exec'd process dies instantly) and re-backs-off.  A successful
restart runs the caller's factory, which rebuilds the stack from the
latest checkpoint (see :mod:`repro.resilience.checkpoint`) — the
supervisor itself is policy only, it never touches checkpoint contents.

Escalation: after ``escalate_after`` consecutive failed attempts the
next successful restart is escalated through the caller's hook
(typically entering the rebuilt control plane into degraded mode via
its :class:`~repro.resilience.breaker.DegradationPolicy` discipline),
and after ``max_restarts`` consecutive failures the supervisor gives
up — the run then surfaces ``gave_up`` instead of looping forever.

Dead stacks are retained on ``supervisor.dead``: the settle phase needs
every incarnation's acked-keys book to prove zero acknowledged-report
loss across the whole run, not just the final incarnation's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import telemetry

log = logging.getLogger("repro.resilience.supervisor")


@dataclass
class SupervisorPolicy:
    """Restart policy knobs (docs/robustness.md has the table)."""

    probe_interval_ns: int = 250_000_000    # liveness probe cadence
    backoff_base_ns: int = 200_000_000      # first restart delay
    backoff_max_ns: int = 2_000_000_000     # backoff ceiling
    max_restarts: int = 5                   # consecutive failures -> give up
    escalate_after: int = 2                 # consecutive failures -> escalate

    def __post_init__(self) -> None:
        if self.probe_interval_ns <= 0 or self.backoff_base_ns <= 0:
            raise ValueError("probe interval and backoff base must be positive")
        if self.backoff_max_ns < self.backoff_base_ns:
            raise ValueError("backoff_max_ns must be >= backoff_base_ns")
        if self.max_restarts < 1 or self.escalate_after < 1:
            raise ValueError("max_restarts and escalate_after must be >= 1")


class Supervisor:
    """Watchdog-driven kill/restart loop over one control-plane stack.

    ``start_fn(incarnation)`` must build, restore and *start* a new
    stack and return it; ``stop_fn(stack)`` must tear one down the way
    a process death would.  The supervisor holds whatever ``start_fn``
    returns opaquely.
    """

    def __init__(
        self,
        sim,
        injector,
        start_fn: Callable[[int], object],
        stop_fn: Callable[[object], None],
        policy: Optional[SupervisorPolicy] = None,
        manager=None,
        escalate_fn: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.sim = sim
        self.injector = injector
        self.start_fn = start_fn
        self.stop_fn = stop_fn
        self.policy = policy or SupervisorPolicy()
        self.manager = manager
        self.escalate_fn = escalate_fn

        self.stack = None
        self.dead: List[object] = []
        self.kills = 0
        self.restarts = 0
        self.failed_attempts = 0
        self.escalations = 0
        self.gave_up = False

        self._consecutive_failures = 0
        self._backoff_ns = self.policy.backoff_base_ns
        self._restart_at_ns: Optional[int] = None
        self._timer = sim.every(self.policy.probe_interval_ns, self._probe)

        telemetry.reads(self, counters=[
            ("repro_cp_restarts_total",
             "control-plane restarts performed by the supervisor",
             (), lambda: self.restarts),
        ], gauges=[
            ("repro_cp_up", "1 while a control-plane stack is running",
             (), lambda: 1 if self.stack is not None else 0),
        ] + ([] if manager is None else [
            ("repro_checkpoint_age_ns", "sim-time age of the newest checkpoint",
             (), lambda: self.manager.age_ns(self.sim.now) or 0),
        ]))

    # -- lifecycle -----------------------------------------------------------

    def adopt(self, stack) -> None:
        """Take ownership of the initially-built stack."""
        self.stack = stack

    def cancel(self) -> None:
        self._timer.cancel()

    @property
    def up(self) -> bool:
        return self.stack is not None

    # -- the probe loop ------------------------------------------------------

    def _probe(self) -> None:
        if self.gave_up:
            return
        now = self.sim.now
        if self.stack is not None:
            if self.injector is not None and self.injector.cp_crashed():
                self._kill(now)
            return
        if self._restart_at_ns is not None and now >= self._restart_at_ns:
            self._attempt_restart(now)

    def _kill(self, now: int) -> None:
        stack, self.stack = self.stack, None
        self.kills += 1
        log.warning("cp crash at t=%.3fs: killing control plane (kill #%d)",
                    now / 1e9, self.kills)
        self.stop_fn(stack)
        self.dead.append(stack)
        self._restart_at_ns = now + self._backoff_ns

    def _attempt_restart(self, now: int) -> None:
        if self.injector is not None and self.injector.cp_crashed():
            # Still inside the crash window: the fresh process dies on
            # arrival.  Count it, widen the backoff, try again later.
            self.failed_attempts += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.policy.max_restarts:
                self.gave_up = True
                log.error("giving up after %d consecutive failed restarts",
                          self._consecutive_failures)
                return
            self._backoff_ns = min(self._backoff_ns * 2,
                                   self.policy.backoff_max_ns)
            self._restart_at_ns = now + self._backoff_ns
            return
        incarnation = self.restarts + 1
        stack = self.start_fn(incarnation)
        self.restarts += 1
        log.info("control plane restarted at t=%.3fs (incarnation r%d)",
                 now / 1e9, incarnation)
        if (self.escalate_fn is not None
                and self._consecutive_failures >= self.policy.escalate_after):
            self.escalations += 1
            self.escalate_fn(stack)
        self._consecutive_failures = 0
        self._backoff_ns = self.policy.backoff_base_ns
        self._restart_at_ns = None
        self.stack = stack
