"""Discrete-event engine.

A single :class:`Simulator` owns the clock (integer nanoseconds) and a
binary-heap event queue.  Components schedule callbacks with
:meth:`Simulator.at` / :meth:`Simulator.after`; timers can be cancelled
through the returned :class:`Event` handle.

Heap entries are plain tuples ``(time_ns, seq, fn, args, handle)``: the
strictly increasing sequence number makes ``(time_ns, seq)`` unique, so
tuple comparison never reaches the third element and sifting stays in C
(no per-comparison ``Event.__lt__`` dispatch).  ``handle`` is the
:class:`Event` cancellation token, or ``None`` for the fire-and-forget
:meth:`Simulator.post` fast path the per-hop events (a node's
``receive``, a port's needed ``_tx_done``) and TCP's pace timer use.

Batch consumers (the batched P4 monitor path) register drain callbacks
via :meth:`Simulator.add_flush_hook`; the engine invokes them whenever a
``run_until``/``run`` drain completes, so state buffered across events
is settled before control returns to the caller.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Any, Callable, Optional

from repro import telemetry
from repro.telemetry import hooks

#: Event budget meaning "no limit": a drain stops when its count of
#: fired events equals the budget, and a count never equals -1.  An int
#: compared with ``!=`` so the hot loop's test stays int-against-int.
_NO_BUDGET = -1
#: Time limit meaning "none": past any timestamp, and an int likewise.
_NO_LIMIT = 1 << 63


class Event:
    """Handle for a scheduled callback.  ``cancel()`` is O(1) (lazy removal)."""

    __slots__ = ("time_ns", "seq", "fn", "args", "cancelled")

    def __init__(self, time_ns: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time_ns = time_ns
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:  # heap tie-breaking
        return (self.time_ns, self.seq) < (other.time_ns, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_ns}ns, fn={getattr(self.fn, '__qualname__', self.fn)}, {state})"


class PeriodicEvent:
    """Handle for a self-rescheduling timer created by :meth:`Simulator.every`.

    The callback fires every ``interval_ns`` until ``cancel()``; cancelling
    from inside the callback stops the timer cleanly (no further firings).

    The next firing is armed *before* the callback runs.  That ordering is
    what makes the timer survive re-entrancy: a callback that advances the
    clock (a nested ``run_until``) still sees every intermediate firing at
    ``t0 + k*interval`` instead of silently skipping them and drifting,
    and a ``cancel()`` issued anywhere inside the callback (directly or
    from an event executed by a nested run) kills the already-scheduled
    next occurrence.
    """

    __slots__ = ("sim", "interval_ns", "fn", "args", "cancelled", "_event")

    def __init__(self, sim: "Simulator", interval_ns: int,
                 fn: Callable[..., Any], args: tuple):
        self.sim = sim
        self.interval_ns = interval_ns
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._event: Optional[Event] = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._event = self.sim.after(self.interval_ns, self._fire)
        self.fn(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Nanosecond-resolution discrete-event simulator.

    Events at equal timestamps run in FIFO scheduling order (a strictly
    increasing sequence number breaks ties), which makes runs fully
    deterministic for a fixed seed.
    """

    def __init__(self) -> None:
        self.now: int = 0
        # (time_ns, seq, fn, args, handle-or-None) tuples; see module doc.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        # Cancelled entries popped and dropped: with the sequence numbers
        # handed out and the queue's length, the exact event tally.
        self._cancelled = 0
        self._flush_hooks: list[Callable[[], None]] = []
        #: Deepest the queue has ever been (scheduler introspection —
        #: `repro_sim_event_queue_hwm`).  Tracked unconditionally: the
        #: cost is one compare per schedule, off the dispatch hot loop.
        self.queue_hwm = 0
        # Profiling: when phase accounting is live, every drain runs the
        # profiled loop body, which charges each event to a per-callback
        # cell (one perf_counter_ns per event, timestamps chained).
        # Disabled cost is one ``is None`` test per drain.
        if hooks.profiler is not None:
            hooks.profiler.bind_clock(self)
        self._prof = hooks.phases()
        # Provenance: components built around this simulator (ports,
        # links, switches, taps) pick up the tracer from here, so one
        # enable() before construction wires the whole topology.
        self.trace = hooks.tracer
        # Telemetry stays out of the event loop: a snapshot reads the
        # event tally and the queue, and only the queue depth at each
        # run()/run_until() return is observed where it happens.
        self._tel_depth = telemetry.histogram(
            "repro_netsim_queue_depth", "event-queue depth sampled at "
            "each run()/run_until() return",
            buckets=telemetry.SIZE_BUCKETS) if telemetry.enabled() else None
        telemetry.reads(self, counters=[
            ("repro_netsim_events_total", "events dispatched by the engine",
             (), lambda: self.events_run),
            # Scheduler introspection: the monotone high-water mark,
            # also in the `watch` header line.
            ("repro_sim_event_queue_hwm",
             "event-queue high-water mark (deepest queue seen)",
             (), lambda: self.queue_hwm),
        ], gauges=[
            ("repro_netsim_pending_events", "live events still queued",
             (), lambda: self.pending),
        ])

    # -- scheduling --------------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time_ns} < now={self.now}"
            )
        ev = Event(time_ns, next(self._seq), fn, args)
        heapq.heappush(self._heap, (time_ns, ev.seq, fn, args, ev))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)
        return ev

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        return self.at(self.now + delay_ns, fn, *args)

    def post(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: identical (time, seq) ordering but
        no :class:`Event` handle, so it cannot be cancelled.  The hot
        per-hop events (node receive, port tx-done) and the TCP pace
        timer use this to skip the per-event handle allocation."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time_ns} < now={self.now}"
            )
        heapq.heappush(self._heap, (time_ns, next(self._seq), fn, args, None))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)

    def post_after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`after` (see :meth:`post`)."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        heapq.heappush(self._heap,
                       (self.now + delay_ns, next(self._seq), fn, args, None))
        if len(self._heap) > self.queue_hwm:
            self.queue_hwm = len(self._heap)

    # -- batch flush hooks -------------------------------------------------

    def add_flush_hook(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run every time a ``run``/``run_until`` drain
        completes.  Batched consumers (the vectorised monitor path) use
        this to settle buffered per-packet state before the caller can
        observe it."""
        self._flush_hooks.append(fn)

    def every(self, interval_ns: int, fn: Callable[..., Any], *args: Any,
              align: bool = False) -> PeriodicEvent:
        """Schedule ``fn(*args)`` every ``interval_ns`` nanoseconds.

        With ``align=True`` the first firing lands on the next multiple of
        ``interval_ns`` (so periodic samplers tick at t = k·interval
        regardless of when they start); otherwise it fires one interval
        from now.  Returns a :class:`PeriodicEvent` whose ``cancel()``
        stops the series.
        """
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive: {interval_ns}")
        timer = PeriodicEvent(self, interval_ns, fn, args)
        if align:
            first = (self.now // interval_ns + 1) * interval_ns
        else:
            first = self.now + interval_ns
        timer._event = self.at(first, timer._fire)
        return timer

    # -- execution ---------------------------------------------------------

    def run_until(self, time_ns: int) -> None:
        """Run every event with timestamp <= ``time_ns``; clock ends there."""
        if time_ns < self.now:
            raise ValueError(f"cannot run backwards to {time_ns} (now={self.now})")
        self._drain(time_ns, _NO_BUDGET)
        self.now = time_ns
        for hook in self._flush_hooks:
            hook()

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` fire)."""
        self._drain(_NO_LIMIT,
                    _NO_BUDGET if max_events is None else max(max_events, 0))
        for hook in self._flush_hooks:
            hook()

    def _drain(self, limit_ns, budget) -> None:
        """The event loop: fire live events in ``(time, seq)`` order
        while the head's timestamp is <= ``limit_ns`` and the number
        fired has not reached ``budget``.

        The loop is written twice — plain and profiled — because it is
        the hottest loop in the system and the plain body must not pay a
        per-event profiler branch.  The profiled body charges each event
        to its callback's phase cell.  Timestamps are chained — one
        ``perf_counter_ns`` per event covers both the previous event's
        end and the next one's start — and the profiler's ``nested_ns``
        delta separates an event's self time from work already
        attributed to explicit phase frames it opened
        (pipeline/control-plane/logstash blocks).
        """
        heap = self._heap
        heappop = heapq.heappop
        prof = self._prof
        executed = 0
        try:
            if prof is None:
                while heap and heap[0][0] <= limit_ns and executed != budget:
                    t, _s, fn, args, handle = heappop(heap)
                    if handle is not None and handle.cancelled:
                        self._cancelled += 1
                        continue
                    self.now = t
                    executed += 1
                    fn(*args)
                return
            cells_get = prof._fn_cells.get
            pcn = time.perf_counter_ns
            t_prev = pcn()
            n_prev = prof.nested_ns
            while heap and heap[0][0] <= limit_ns and executed != budget:
                t, _s, fn, args, handle = heappop(heap)
                if handle is not None and handle.cancelled:
                    self._cancelled += 1
                    continue
                self.now = t
                executed += 1
                fn(*args)
                t_now = pcn()
                # nested_ns grows monotonically (root frames and block
                # cells add on close), so it chains like the timestamp.
                n_now = prof.nested_ns
                # Bound methods of one instance hash equal, so the cell
                # cache keys on the callback object directly (cheaper
                # than unwrapping __func__ per event).
                cell = cells_get(fn)
                if cell is None:
                    cell = prof.dispatch_cell(fn, fn)
                dt = t_now - t_prev
                cell[0] += dt
                cell[1] += dt - n_now + n_prev
                cell[2] += 1
                t_prev = t_now
                n_prev = n_now
        finally:
            if self._tel_depth is not None:
                self._tel_depth.observe(len(heap))

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty.

        Single-stepping bypasses the batch flush hooks — callers that mix
        ``step()`` with batched consumers should flush those explicitly.
        """
        heap = self._heap
        while heap:
            t, _s, fn, args, handle = heapq.heappop(heap)
            if handle is not None and handle.cancelled:
                self._cancelled += 1
                continue
            self.now = t
            fn(*args)
            return True
        return False

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live events still queued (excludes cancelled)."""
        return sum(1 for entry in self._heap
                   if entry[4] is None or not entry[4].cancelled)

    @property
    def events_run(self) -> int:
        """Total events executed so far, the one running included: every
        event scheduled is still queued, was dropped cancelled, or ran.
        Exact from inside a callback too, with no per-event count in the
        loop (``itertools.count`` shows its next value only in its repr)."""
        scheduled = int(repr(self._seq)[6:-1])
        return scheduled - len(self._heap) - self._cancelled

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            handle = heap[0][4]
            if handle is None or not handle.cancelled:
                break
            heapq.heappop(heap)
            self._cancelled += 1
        return heap[0][0] if heap else None
