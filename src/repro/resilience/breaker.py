"""Circuit breaker + graceful-degradation policy.

The breaker watches delivery outcomes.  Consecutive failures open it:
sends short-circuit into the spool instead of hammering a dead
archiver, and the attached :class:`DegradationPolicy` switches the
control plane into degraded mode (per-flow reports collapse to the
aggregate stream, extraction intervals t_N–t_Q widen).  After
``open_interval_ns`` the breaker goes half-open and lets probe sends
through; enough successes close it again and the policy restores full
reporting.  Every transition is timestamped, kept on the breaker and
exported through telemetry, so chaos runs can assert the
degrade/restore cycle actually happened.
"""

from __future__ import annotations

import logging
from collections import Counter
from enum import Enum
from typing import Callable, List, Tuple

from repro import telemetry

log = logging.getLogger("repro.resilience.breaker")


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding (docs/robustness.md): 0 closed, 1 half-open, 2 open.
_STATE_LEVEL = {BreakerState.CLOSED: 0, BreakerState.HALF_OPEN: 1,
                BreakerState.OPEN: 2}

TransitionListener = Callable[[int, BreakerState, BreakerState], None]


class CircuitBreaker:
    def __init__(
        self,
        failure_threshold: int = 5,
        success_threshold: int = 2,
        open_interval_ns: int = 500_000_000,
        half_open_probes: int = 1,
    ) -> None:
        if failure_threshold <= 0 or success_threshold <= 0:
            raise ValueError("thresholds must be positive")
        self.failure_threshold = failure_threshold
        self.success_threshold = success_threshold
        self.open_interval_ns = open_interval_ns
        self.half_open_probes = half_open_probes

        self.state = BreakerState.CLOSED
        self.transitions: List[Tuple[int, BreakerState, BreakerState]] = []
        self._listeners: List[TransitionListener] = []
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._probes_available = 0
        self._open_until_ns = 0

        telemetry.reads(self, counters=[
            ("repro_breaker_transitions_total",
             "circuit-breaker state transitions, by target state", ("to",),
             lambda: Counter(new.value for _, _, new in self.transitions)),
        ], gauges=[
            ("repro_breaker_state", "breaker state (0 closed, 1 half-open, 2 open)",
             (), lambda: _STATE_LEVEL[self.state]),
        ])

    def add_listener(self, listener: TransitionListener) -> None:
        self._listeners.append(listener)

    def _transition(self, now_ns: int, new: BreakerState) -> None:
        old = self.state
        if old is new:
            return
        self.state = new
        self.transitions.append((now_ns, old, new))
        log.info("breaker %s -> %s at t=%.3fs", old.value, new.value,
                 now_ns / 1e9)
        for listener in self._listeners:
            listener(now_ns, old, new)

    # -- the shipper-facing protocol -------------------------------------------

    def allow(self, now_ns: int) -> bool:
        """May a send be attempted right now?  An open breaker past its
        hold time flips to half-open and budgets probe sends."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now_ns < self._open_until_ns:
                return False
            self._transition(now_ns, BreakerState.HALF_OPEN)
            self._half_open_successes = 0
            self._probes_available = self.half_open_probes
        if self._probes_available > 0:
            self._probes_available -= 1
            return True
        return False

    def record_success(self, now_ns: int) -> None:
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            self._probes_available += 1
            if self._half_open_successes >= self.success_threshold:
                self._transition(now_ns, BreakerState.CLOSED)

    def record_deferred(self, now_ns: int) -> None:
        """A probe held in transit proved nothing: its budget comes back."""
        if self.state is BreakerState.HALF_OPEN:
            self._probes_available += 1

    def record_failure(self, now_ns: int) -> None:
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or (
                self.state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._open_until_ns = now_ns + self.open_interval_ns
            self._transition(now_ns, BreakerState.OPEN)

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot: state machine position + transition log."""
        return {
            "state": self.state.value,
            "consecutive_failures": self._consecutive_failures,
            "half_open_successes": self._half_open_successes,
            "probes_available": self._probes_available,
            "open_until_ns": self._open_until_ns,
            "transitions": [[ns, old.value, new.value]
                            for ns, old, new in self.transitions],
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed breaker's position *silently* — no
        listener fires (the restored control plane's degraded flag is
        restored separately, from the same checkpoint)."""
        self.state = BreakerState(state["state"])
        self._consecutive_failures = int(state["consecutive_failures"])
        self._half_open_successes = int(state["half_open_successes"])
        self._probes_available = int(state["probes_available"])
        self._open_until_ns = int(state["open_until_ns"])
        self.transitions = [
            (int(ns), BreakerState(old), BreakerState(new))
            for ns, old, new in state["transitions"]]
        telemetry.rebase(self)

    # -- introspection ---------------------------------------------------------

    def saw_state(self, state: BreakerState) -> bool:
        return any(new is state for _, _, new in self.transitions)

    def summary(self) -> str:
        if not self.transitions:
            return f"breaker: {self.state.value} (no transitions)"
        path = " -> ".join([self.transitions[0][1].value]
                           + [t[2].value for t in self.transitions])
        return f"breaker: {path} (now {self.state.value})"


class DegradationPolicy:
    """Binds breaker transitions to the control plane's degraded mode.

    Open ⇒ degrade (collapse per-flow reports to the aggregate stream,
    widen extraction intervals by ``interval_scale``); closed ⇒ restore.
    Half-open keeps degradation: full reporting resumes only once the
    path has proven healthy.
    """

    def __init__(self, breaker: CircuitBreaker, control_plane,
                 interval_scale: float = 4.0) -> None:
        if interval_scale < 1.0:
            raise ValueError("interval_scale must be >= 1")
        self.breaker = breaker
        self.control_plane = control_plane
        self.interval_scale = interval_scale
        self.degrade_events = 0
        self.restore_events = 0
        breaker.add_listener(self._on_transition)

    def _on_transition(self, now_ns: int, old: BreakerState,
                       new: BreakerState) -> None:
        if new is BreakerState.OPEN:
            self.degrade_events += 1
            self.control_plane.set_degraded(
                True, interval_scale=self.interval_scale)
        elif new is BreakerState.CLOSED:
            self.restore_events += 1
            self.control_plane.set_degraded(False)
