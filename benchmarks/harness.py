"""The one harness every perf budget under ``benchmarks/`` is declared on.

A budget is a declaration: two zero-argument measurements (each returns
its own elapsed ns — a whole scenario run with an observer on and the
same run with it off), :func:`interleaved_best`, a number.  Each round
is a fresh construction and the best round is the one least disturbed.

:func:`assert_within` holds the result to its number.  Everything is
same-host and same-process; nothing is written down to be compared on
another machine (docs/observability.md, "Overhead budgets").  What a
switched-*off* subsystem costs is not timed here: it is one ``is None``
test per site, pinned as a count by tests/test_disabled_guards.py.
"""

import gc
import time

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.flow_table import PORT_INGRESS_TAP
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import F_ACK, Packet, make_ack_packet, make_data_packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.units import millis, seconds
from repro.p4.pipeline import StandardMetadata
from repro.perfsonar.archiver import Archiver

from tests.core.helpers import FT, document_sink, small_monitor

PACKETS = 400
# A budget passes as soon as one clean attempt fits.
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


def enabled_stage_run(**overrides):
    """A monitor with an optional register set switched on (stashes
    large enough that the stream never evicts), under a live control
    plane: one flow claims a slot, then 8 s of triples at 1 kpkt/s —
    each data packet crosses the tapped switch (queue match) and is
    ACKed 5 ms later (eACK match), 24k pipeline traversals — with the
    extraction schedule ticking.  Returns ``(control plane, shipped
    documents)``."""
    sim = Simulator()
    mon = small_monitor(eack_table_size=4096, queue_stash_size=4096,
                        **overrides)
    shipped = []
    cp = MonitorControlPlane(sim, mon, report_sink=document_sink(shipped))
    cp.start()

    def copy_at(t, pkt, direction):
        sim.at(t, mon.process_packet, pkt, direction, t)

    copy_at(1000, make_data_packet(FT, seq=0, payload_len=1001, ip_id=60_000),
            TapDirection.INGRESS)
    for i in range(8000):
        t = 1000 + i * int(millis(1))
        seq = 1 + i * 1000
        pkt = make_data_packet(FT, seq=seq, payload_len=1000, ip_id=i + 1)
        copy_at(t, pkt, TapDirection.INGRESS)
        copy_at(t + 200_000, pkt, TapDirection.EGRESS)
        copy_at(t + int(millis(5)),
                make_ack_packet(FT.reversed(), ack=seq + 1000),
                TapDirection.INGRESS)
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


def thin_flow_capture(flows=800, duration_s=3.0, gap_ns=250_000_000,
                      payload=1448, slice_ns=100_000_000):
    """A TAP capture of ``flows`` thin long-lived flows with no network
    around them: each sends one segment every ``gap_ns`` (its ingress
    copy, the egress copy 80 us later and the ACK's ingress copy one
    10-40 ms RTT later), starts staggered across the first gap, and the
    capture is cut into ``slice_ns`` slices ``(run_until ns, copies)``."""
    ingress, egress = TapDirection.INGRESS, TapDirection.EGRESS
    events = []
    for f in range(flows):
        src, dst, sport = 0x0A010000 + f, 0x0A020000 + f, 20_000 + f
        rtt = 10_000_000 + (f * 7919) % 30_000_000
        t, seq = f * gap_ns // flows, 1
        while t < seconds(duration_s):
            data = Packet.tcp_fast(src, dst, sport, 5201, seq, 1, F_ACK,
                                   65535, payload, f, t)
            ack = Packet.tcp_fast(dst, src, 5201, sport, 1, seq + payload,
                                  F_ACK, 65535, 0, f, t)
            events += [(t, data, ingress), (t + 80_000, data, egress),
                       (t + rtt, ack, ingress)]
            t, seq = t + gap_ns, seq + payload
    events.sort(key=lambda e: e[0])
    slices, cut = [], 0
    for end in range(slice_ns, seconds(duration_s) + slice_ns, slice_ns):
        start = cut
        while cut < len(events) and events[cut][0] < end:
            cut += 1
        slices.append((end, [MirrorCopy(pkt, way, ts)
                             for ts, pkt, way in events[start:cut]]))
    return slices


def report_ingest_system(ship=None):
    """The shape of the repo benchmark's ``report_ingest``: a monitor on
    the batched path whose flows turn long after two segments, under a
    control plane that extracts every metric class at 10 samples/s into
    an archiver, so extraction, report building, Logstash and the
    archive do most of the work.  ``ship(sim, sink)``, when given,
    returns the report sink put in front of the archiver's.  Returns
    ``(sim, monitor, archiver)``."""
    config = MonitorConfig(long_flow_bytes=2_000)
    for kind in MetricKind:
        config.metric(kind).samples_per_second = 10.0
    sim = Simulator()
    monitor = P4Monitor(config, sim=sim)
    archiver = Archiver()
    sink = archiver.sink if ship is None else ship(sim, archiver.sink)
    MonitorControlPlane(sim, monitor, report_sink=sink).start()
    return sim, monitor, archiver


def timed_replay(system, capture):
    """Wall ns of feeding ``capture`` to a system built by
    :func:`report_ingest_system`, clock advanced per slice.  The
    collector stays on even inside :func:`interleaved_best`: most of
    what a tuple built per report costs is its collection."""
    sim, monitor, _ = system
    receive = monitor.receive_copy
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.enable()
    try:
        t0 = time.perf_counter_ns()
        for until_ns, copies in capture:
            for copy in copies:
                receive(copy)
            sim.run_until(until_ns)
        return time.perf_counter_ns() - t0
    finally:
        if not gc_was_enabled:
            gc.disable()


# -- measurements -------------------------------------------------------------

def timed_run(scenario, until_s):
    """Wall ns of the event loop only: construction is allocator-heavy
    and noisy, and the budgets are about the steady-state hot path."""
    gc.collect()
    t0 = time.perf_counter_ns()
    scenario.run(until_s)
    return time.perf_counter_ns() - t0


def interleaved_best(run_a, run_b, rounds):
    """``(best a, best b)`` over ``rounds`` pairs, after one untimed
    warm-up of each so caches and register state converge: the two
    measurements back to back, the order alternated — whichever runs
    right after the collect pays the cold caches, and thermal/allocator
    drift always penalises whichever runs second; alternation cancels
    both — with the GC held off the timings."""
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
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
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
