"""Event engine: ordering, cancellation, clock semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0
    assert sim.pending == 0


def test_events_run_in_time_order(sim):
    order = []
    sim.at(30, order.append, "c")
    sim.at(10, order.append, "a")
    sim.at(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_run_fifo(sim):
    order = []
    for tag in range(5):
        sim.at(100, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_after_is_relative(sim):
    seen = []
    sim.at(50, lambda: sim.after(25, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [75]


def test_run_until_stops_clock_at_boundary(sim):
    sim.at(10, lambda: None)
    sim.at(200, lambda: None)
    sim.run_until(100)
    assert sim.now == 100
    assert sim.pending == 1


def test_run_until_includes_boundary_events(sim):
    hits = []
    sim.at(100, hits.append, 1)
    sim.run_until(100)
    assert hits == [1]


def test_cancel_skips_event(sim):
    hits = []
    ev = sim.at(10, hits.append, 1)
    sim.at(20, hits.append, 2)
    ev.cancel()
    sim.run()
    assert hits == [2]


def test_cancel_is_idempotent(sim):
    ev = sim.at(10, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()
    assert sim.events_run == 0


def test_schedule_in_past_rejected(sim):
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.after(-1, lambda: None)


def test_run_backwards_rejected(sim):
    sim.run_until(100)
    with pytest.raises(ValueError):
        sim.run_until(50)


def test_events_scheduled_during_run_execute(sim):
    hits = []

    def chain(n):
        hits.append(n)
        if n < 4:
            sim.after(1, chain, n + 1)

    sim.at(0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3, 4]


def test_step_runs_single_event(sim):
    hits = []
    sim.at(5, hits.append, 1)
    sim.at(6, hits.append, 2)
    assert sim.step()
    assert hits == [1]
    assert sim.step()
    assert not sim.step()


def test_max_events_budget(sim):
    for i in range(10):
        sim.at(i, lambda: None)
    sim.run(max_events=3)
    assert sim.events_run == 3
    assert sim.pending == 7


def test_peek_time_skips_cancelled(sim):
    ev = sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    ev.cancel()
    assert sim.peek_time() == 20


def test_pending_excludes_cancelled(sim):
    ev = sim.at(10, lambda: None)
    sim.at(20, lambda: None)
    ev.cancel()
    assert sim.pending == 1


def test_args_passed_through(sim):
    got = []
    sim.at(1, lambda a, b: got.append((a, b)), "x", 42)
    sim.run()
    assert got == [("x", 42)]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_execution_order_is_sorted(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.at(t, seen.append, t)
    sim.run()
    assert seen == sorted(times)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
    st.data(),
)
def test_property_cancelled_never_run(times, data):
    sim = Simulator()
    seen = []
    events = [sim.at(t, seen.append, i) for i, t in enumerate(times)]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events)
    ))
    for i in to_cancel:
        events[i].cancel()
    sim.run()
    assert set(seen) == set(range(len(times))) - to_cancel


# -- periodic timers (Simulator.every) ----------------------------------------


def test_every_fires_at_fixed_interval(sim):
    times = []
    sim.every(100, lambda: times.append(sim.now))
    sim.run_until(500)
    assert times == [100, 200, 300, 400, 500]


def test_every_align_snaps_to_interval_multiples(sim):
    sim.at(37, lambda: None)
    sim.run()
    assert sim.now == 37
    times = []
    sim.every(100, lambda: times.append(sim.now), align=True)
    sim.run_until(350)
    assert times == [100, 200, 300]


def test_every_cancel_stops_future_firings(sim):
    times = []
    timer = sim.every(10, lambda: times.append(sim.now))
    sim.at(35, timer.cancel)
    sim.run_until(100)
    assert times == [10, 20, 30]


def test_every_cancel_from_inside_callback(sim):
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 2:
            timer.cancel()

    timer = sim.every(10, tick)
    sim.run_until(100)
    assert times == [10, 20]


def test_every_rejects_nonpositive_interval(sim):
    with pytest.raises(ValueError):
        sim.every(0, lambda: None)
    with pytest.raises(ValueError):
        sim.every(-5, lambda: None)


def test_every_passes_args(sim):
    got = []
    sim.every(10, got.append, "x")
    sim.run_until(20)
    assert got == ["x", "x"]


# -- periodic timers: re-entrancy regressions ---------------------------------
#
# PeriodicEvent used to arm its next occurrence only *after* the callback
# returned.  A callback that re-enters the event loop (nested run_until —
# what a control-plane tick does when it flushes reports through a
# simulated sink) would then run past the next scheduled firing before it
# existed, silently skipping ticks and drifting off the period grid.


def test_every_survives_nested_run_until(sim):
    times = []

    def tick():
        times.append(sim.now)
        # Re-enter the loop from inside the callback; the next periodic
        # firing must already be armed so the cadence is preserved.
        sim.after(5, lambda: None)
        sim.run_until(sim.now + 5)

    sim.every(10, tick)
    sim.run_until(50)
    assert times == [10, 20, 30, 40, 50]


def test_every_cancel_during_fire_from_nested_run(sim):
    times = []

    def tick():
        times.append(sim.now)
        if len(times) == 2:
            # Cancel from *inside* a nested event scheduled by the
            # callback — the armed next occurrence must die with it.
            sim.after(1, timer.cancel)
            sim.run_until(sim.now + 1)

    timer = sim.every(10, tick)
    sim.run_until(100)
    assert times == [10, 20]


def test_every_cancel_before_first_fire_same_timestamp(sim):
    # An event scheduled earlier at the same timestamp runs first (FIFO);
    # its cancel must suppress the would-be first firing entirely.
    times = []
    timer = None
    sim.at(10, lambda: timer.cancel())
    timer = sim.every(10, lambda: times.append(sim.now))
    sim.run_until(100)
    assert times == []


def test_every_cancel_after_fire_same_timestamp(sim):
    # Reversed FIFO order: the periodic timer was scheduled first, so at
    # t=10 it fires before the canceller runs; exactly one tick survives.
    times = []
    timer = sim.every(10, lambda: times.append(sim.now))
    sim.at(10, timer.cancel)
    sim.run_until(100)
    assert times == [10]


def test_events_run_is_exact_from_inside_a_run(sim):
    # A periodic reader (the `watch` sampler's position) sees every event
    # dispatched before it, itself included, while the drain is still
    # running; cancelled events never count, and neither does a nested
    # run_until's work until it has happened.
    dispatched = []
    seen = []

    def work():
        dispatched.append(sim.now)

    def tick():
        dispatched.append(sim.now)
        seen.append((sim.events_run, len(dispatched)))
        sim.after(1, work)
        sim.after(2, work).cancel()
        sim.run_until(sim.now + 3)       # nested: runs the one live event
        seen.append((sim.events_run, len(dispatched)))

    for t in range(1, 100, 7):
        sim.at(t, work)
    sim.at(50, work).cancel()
    sim.every(10, tick)
    sim.run_until(95)
    assert len(seen) == 18
    assert all(run == count for run, count in seen)
    assert sim.events_run == len(dispatched)
    sim.step()
    assert sim.events_run == len(dispatched)
