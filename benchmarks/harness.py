"""The one harness every perf budget under ``benchmarks/`` is declared on.

A budget is a declaration: two zero-argument measurements (each returns
its own elapsed ns — the configuration under test and its twin), an
estimator, a number.  Two estimators, because there are two kinds of
twin:

- :func:`paired_median` for a *guard* budget — a hot path against the
  same body minus the guard under test, where the delta is tens of ns
  on microseconds.  Both sides run back to back in the same
  frequency/scheduler state, so the per-pair ratio cancels drift that
  two separate streams cannot, and the median pair shrugs off the odd
  preempted round in either direction.
- :func:`interleaved_best` for an *end-to-end* budget — a whole
  scenario run with an observer on against the same run with it off,
  where each round is a fresh construction and the best round is the
  one least disturbed.

:func:`assert_within` holds either result to its number.  Everything
is same-host and same-process; nothing is written down to be compared
on another machine (docs/observability.md, "Overhead budgets").
"""

import gc
import statistics
import time

from repro.core.control_plane import MonitorControlPlane
from repro.core.flow_table import PORT_INGRESS_TAP
from repro.netsim.engine import Simulator
from repro.netsim.packet import make_ack_packet, make_data_packet
from repro.netsim.tap import TapDirection
from repro.netsim.units import millis, seconds
from repro.p4.pipeline import StandardMetadata

from tests.core.helpers import FT, small_monitor

PACKETS = 400
# A budget passes as soon as one clean attempt fits.  Five is the larger
# of the two counts the files carried before they shared this loop: the
# resilience guard fits its 1.02 in about four attempts of ten on the
# 2-core reference VM, so three would fail one run in five.
ATTEMPTS = 5


# -- workloads ----------------------------------------------------------------

def packet_stream():
    """PACKETS data segments of one flow, each followed by its ACK."""
    stream = []
    seq = 1
    for i in range(PACKETS):
        stream.append(make_data_packet(FT, seq=seq, payload_len=1000, ip_id=i))
        stream.append(make_ack_packet(FT.reversed(), ack=seq + 1000))
        seq += 1000
    return stream


def drive(pipeline, stream):
    t = 1000
    for pkt in stream:
        meta = StandardMetadata(ingress_port=PORT_INGRESS_TAP,
                                ingress_timestamp_ns=t)
        pipeline.process(pkt, meta)
        t += 500_000


def event_stream(n):
    """n (packet, direction, t_ns) triples: each data packet crosses the
    tapped switch (queue match) and is ACKed 5 ms later (eACK match)."""
    events = []
    seq = 1
    for i in range(n):
        t = 1000 + i * int(millis(1))
        pkt = make_data_packet(FT, seq=seq, payload_len=1000, ip_id=i + 1)
        events.append((pkt, TapDirection.INGRESS, t))
        events.append((pkt, TapDirection.EGRESS, t + 200_000))
        ack = make_ack_packet(FT.reversed(), ack=seq + 1000)
        events.append((ack, TapDirection.INGRESS, t + int(millis(5))))
        seq += 1000
    return events


def drive_events(mon, events):
    process = mon.process_packet
    for pkt, direction, t in events:
        process(pkt, direction, t)


def stage_monitor(**overrides):
    """The monitor the per-stage guard budgets drive: stashes large
    enough that an :func:`event_stream` never evicts."""
    return small_monitor(eack_table_size=4096, queue_stash_size=4096,
                         **overrides)


def enabled_stage_run(**overrides):
    """A :func:`stage_monitor` with an optional register set switched
    on, under a live control plane: one flow claims a slot, then 8 s of
    transit+ACK triples at 1 kpkt/s (24k pipeline traversals) with the
    extraction schedule ticking.  Returns ``(control plane, shipped
    documents)``."""
    sim = Simulator()
    mon = stage_monitor(**overrides)
    shipped = []
    cp = MonitorControlPlane(sim, mon, report_sink=shipped.append)
    cp.start()
    first = make_data_packet(FT, seq=0, payload_len=1001, ip_id=60_000)
    sim.at(1000, mon.process_packet, first, TapDirection.INGRESS, 1000)
    for pkt, direction, t in event_stream(8000):
        sim.at(t, mon.process_packet, pkt, direction, t)
    sim.run_until(seconds(10))
    return cp, shipped


def substrate_scenario(flow_s=2.0, stagger_s=0.0, with_perfsonar=False,
                       **monitor_overrides):
    """The substrate end-to-end workload: a monitored two-flow TCP
    scenario over the Fig. 8 topology.  Construction binds whatever
    instrumentation is live at call time."""
    from repro.experiments.common import Scenario, ScenarioConfig

    scenario = Scenario(
        ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                       reference_rtt_ms=40.0,
                       monitor_overrides=monitor_overrides),
        with_perfsonar=with_perfsonar,
    )
    scenario.add_flow(0, duration_s=flow_s)
    scenario.add_flow(1, start_s=stagger_s, duration_s=flow_s)
    return scenario


# -- measurements -------------------------------------------------------------

def timed(fn, *args):
    t0 = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t0


def timed_run(scenario, until_s):
    """Wall ns of the event loop only: construction is allocator-heavy
    and noisy, and the budgets are about the steady-state hot path."""
    gc.collect()
    return timed(scenario.run, until_s)


def _pairs(run_a, run_b, rounds, between=None):
    """``rounds`` (a_ns, b_ns) pairs, after one untimed warm-up of each
    so caches and register state converge: the two measurements back to
    back, the order alternated — whichever runs right after the collect
    pays the cold caches, and thermal/allocator drift always penalises
    whichever runs second; alternation cancels both — with the GC held
    off the timings.  ``between()`` runs after each pair, before the
    collect: a twin that accumulates state resets it there so the
    working set stays flat across rounds."""
    run_a()
    run_b()
    pairs = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(rounds):
            if i % 2 == 0:
                a = run_a()
                b = run_b()
            else:
                b = run_b()
                a = run_a()
            pairs.append((a, b))
            if between is not None:
                between()
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return pairs


def paired_median(run_a, run_b, rounds, between=None):
    """Median over ``rounds`` alternated back-to-back pairs of the
    per-pair ratio ``run_a() / run_b()``."""
    return statistics.median(
        a / b for a, b in _pairs(run_a, run_b, rounds, between))


def interleaved_best(run_a, run_b, rounds):
    """``(best a, best b)`` over ``rounds`` alternated pairs."""
    pairs = _pairs(run_a, run_b, rounds)
    return min(a for a, _ in pairs), min(b for _, b in pairs)


def assert_within(measure, budget, label):
    """``measure()`` returns a number to hold at or under ``budget``;
    retried up to ATTEMPTS times, passing as soon as one clean attempt
    fits.  Returns the best attempt."""
    values = []
    for _ in range(ATTEMPTS):
        value = measure()
        values.append(value)
        if value <= budget:
            break
    assert min(values) <= budget, (
        f"{label}: {min(values):.3f} over budget {budget}; attempts: "
        + ", ".join(f"{v:.3f}" for v in values))
    return min(values)
