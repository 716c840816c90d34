"""Property-based scheduler invariants (hypothesis).

The batched monitor path leans on the engine's determinism contract:
same-timestamp events fire in scheduling (FIFO) order, cancellation is
exact, periodic timers neither skip nor drift under re-entrant drains,
and every ``run``/``run_until`` drain settles the flush hooks.  These
properties pin that contract against a plain sorted-list reference
model so hot-path rewrites (inlined heappushes, handle-free posts)
cannot quietly change dispatch semantics.

The engine's drain has two loop bodies, plain and profiled; every
property draws which one its simulator binds (``profiled``), so both
are held to the same contract.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.telemetry import profiling

# Scenario sims run far past hypothesis' default 200ms deadline budget
# on a loaded box; these examples are tiny but CI noise isn't.
relaxed = settings(deadline=None)


def new_sim(profiled: bool) -> Simulator:
    """A simulator whose drains run the plain or the profiled loop body
    (the profiler is bound at construction and outlives ``disable``)."""
    if not profiled:
        return Simulator()
    profiling.enable(mode="phase")
    try:
        sim = Simulator()
    finally:
        profiling.disable()
    assert sim._prof is not None
    return sim


@settings(deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                        min_size=1, max_size=40),
       profiled=st.booleans())
def test_same_timestamp_fifo(entries, profiled):
    """Equal timestamps dispatch in scheduling order, for both the
    handled (`at`) and fire-and-forget (`post`) entry points."""
    sim = new_sim(profiled)
    fired = []
    for i, (t, use_post) in enumerate(entries):
        if use_post:
            sim.post(t, fired.append, (t, i))
        else:
            sim.at(t, fired.append, (t, i))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(entries)


@settings(deadline=None)
@given(data=st.data())
def test_drain_matches_reference_model(data):
    """Interleaved schedules, cancels and partial drains against a
    sorted-list model: every run_until fires exactly the live events
    with timestamp <= T, in (time, seq) order, and lands the clock on
    T; every run(max_events=k) fires exactly the first k live events
    and leaves the clock on the last one."""
    sim = new_sim(data.draw(st.booleans(), label="profiled"))
    fired = []
    # model entries: [time, seq, cancelled, fired]
    model = []
    handles = []
    expected = []
    now = 0
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        for _ in range(data.draw(st.integers(0, 12), label="schedules")):
            t = now + data.draw(st.integers(0, 50), label="delay")
            seq = len(model)
            handles.append(sim.at(t, fired.append, seq))
            model.append([t, seq, False, False])
        if handles:
            for idx in data.draw(
                    st.lists(st.integers(0, len(handles) - 1), max_size=4),
                    label="cancels"):
                handles[idx].cancel()
                model[idx][2] = True
        live = sorted((e for e in model if not e[2] and not e[3]),
                      key=lambda e: (e[0], e[1]))
        if data.draw(st.booleans(), label="by_count"):
            k = data.draw(st.integers(0, 6), label="max_events")
            due = live[:k]
            sim.run(max_events=k)
            if due:
                now = due[-1][0]
        else:
            now += data.draw(st.integers(0, 60), label="advance")
            due = [e for e in live if e[0] <= now]
            sim.run_until(now)
        assert sim.now == now
        for entry in due:
            expected.append(entry[1])
            entry[3] = True
        assert fired == expected
    live = sum(1 for e in model if not e[2] and not e[3])
    assert sim.pending == live
    assert sim.events_run == len(fired)


@settings(deadline=None)
@given(interval=st.integers(1, 1_000),
       nest_on=st.integers(1, 4),
       extra_intervals=st.integers(0, 5),
       profiled=st.booleans())
def test_every_tick_reentrancy(interval, nest_on, extra_intervals, profiled):
    """A periodic callback that advances the clock with a nested
    run_until still sees every firing at t0 + k*interval — no skips,
    no drift (the next occurrence is armed before the callback runs)."""
    sim = new_sim(profiled)
    fires = []
    horizon = interval * 10

    def cb():
        fires.append(sim.now)
        if len(fires) == nest_on:
            # Jump over several would-be firings, staying inside the
            # outer drain's horizon (run_until pins the clock there).
            target = min(sim.now + extra_intervals * interval, horizon)
            sim.run_until(target)

    timer = sim.every(interval, cb)
    sim.run_until(horizon)
    timer.cancel()
    assert fires == [interval * k for k in range(1, 11)]


@settings(deadline=None)
@given(interval=st.integers(1, 100), stop_on=st.integers(1, 5),
       profiled=st.booleans())
def test_every_cancel_from_inside_callback(interval, stop_on, profiled):
    sim = new_sim(profiled)
    fires = []
    timer = None

    def cb():
        fires.append(sim.now)
        if len(fires) == stop_on:
            timer.cancel()

    timer = sim.every(interval, cb)
    sim.run_until(interval * (stop_on + 7))
    assert fires == [interval * k for k in range(1, stop_on + 1)]


@settings(deadline=None)
@given(t=st.integers(0, 5), n=st.integers(2, 10), data=st.data(),
       profiled=st.booleans())
def test_cancel_during_same_tick_batch(t, n, data, profiled):
    """The first event of a tick cancels peers scheduled for the very
    same timestamp: lazily-removed entries must not fire even though
    they are already in the popped batch's time range."""
    sim = new_sim(profiled)
    fired = []
    handles = []
    victims = sorted(data.draw(
        st.sets(st.integers(1, n - 1), max_size=n - 1), label="victims"))

    def first():
        for v in victims:
            handles[v - 1].cancel()
        fired.append(0)

    sim.at(t, first)
    for i in range(1, n):
        handles.append(sim.at(t, fired.append, i))
    sim.run()
    assert fired == [0] + [i for i in range(1, n) if i not in victims]


@settings(deadline=None)
@given(advances=st.lists(st.integers(0, 30), min_size=1, max_size=6),
       profiled=st.booleans())
def test_flush_hooks_settle_every_drain(advances, profiled):
    """Each run_until drain runs the flush hooks exactly once, after the
    last event of the drain (the batched monitor's correctness hinges
    on this ordering)."""
    sim = new_sim(profiled)
    log = []
    sim.add_flush_hook(lambda: log.append(("flush", sim.now)))
    now = 0
    for adv in advances:
        sim.at(now + adv, log.append, ("event", now + adv))
        now += adv
        sim.run_until(now)
    flushes = [e for e in log if e[0] == "flush"]
    assert len(flushes) == len(advances)
    # every event precedes its drain's flush in the log
    for i, e in enumerate(log):
        if e[0] == "event":
            nxt = next(x for x in log[i + 1:] if x[0] == "flush")
            assert nxt[1] >= e[1]


@settings(deadline=None)
@given(times=st.lists(st.integers(0, 20), min_size=1, max_size=10),
       data=st.data(), profiled=st.booleans())
def test_peek_time_skips_cancelled_heads(times, data, profiled):
    sim = new_sim(profiled)
    handles = [sim.at(t, lambda: None) for t in sorted(times)]
    dead = data.draw(st.sets(st.integers(0, len(handles) - 1),
                             max_size=len(handles)), label="dead")
    for idx in dead:
        handles[idx].cancel()
    live = [h.time_ns for i, h in enumerate(handles) if i not in dead]
    assert sim.peek_time() == (min(live) if live else None)
