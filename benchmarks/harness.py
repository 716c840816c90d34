"""What the overhead benchmarks share (first slice of ROADMAP item 1).

Every ``test_*_overhead.py`` budget is the same experiment: drive one
workload through an instrumented configuration and through its bare
twin, rounds interleaved and order-alternated, best-of-N, GC held off
the timings, and pass as soon as one clean attempt fits the budget.
This module holds the one copy of each piece — including the one
reference copy of the uninstrumented ``P4Pipeline.process`` body.
"""

import gc
import time

from repro.core.flow_table import PORT_INGRESS_TAP
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.p4.pipeline import P4Pipeline, StandardMetadata

PACKETS = 400
ROUNDS = 9


class BarePipeline(P4Pipeline):
    """The process() body exactly as it was before instrumentation."""

    def process(self, packet, meta):
        self.packets_in += 1
        hdr = self.parser.parse(packet)
        if hdr is None:
            self.packets_dropped += 1
            return None
        for stage in self.ingress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        for stage in self.egress:
            stage.process(hdr, meta)
            if meta.drop:
                self.packets_dropped += 1
                return None
        return hdr


def bare_twin_of(pipeline):
    """A BarePipeline sharing ``pipeline``'s parser, stages and
    registers, so a measured delta is exactly the instrumentation."""
    bare = BarePipeline("bare")
    bare.parser = pipeline.parser
    bare.ingress = pipeline.ingress
    bare.egress = pipeline.egress
    return bare


def packet_stream():
    """PACKETS data segments of one flow, each followed by its ACK."""
    ft = FiveTuple(0x0A00000A, 0x0A01000A, 40000, 5201)
    stream = []
    seq = 1
    for i in range(PACKETS):
        stream.append(make_data_packet(ft, seq=seq, payload_len=1000, ip_id=i))
        stream.append(make_ack_packet(ft.reversed(), ack=seq + 1000))
        seq += 1000
    return stream


def drive(pipeline, stream):
    t = 1000
    for pkt in stream:
        meta = StandardMetadata(ingress_port=PORT_INGRESS_TAP,
                                ingress_timestamp_ns=t)
        pipeline.process(pkt, meta)
        t += 500_000


def interleaved_best(run_a, run_b, rounds):
    """Best-of-``rounds`` result of two zero-argument measurements
    (each returns its own elapsed ns), after one untimed warmup of
    each, rounds interleaved and order-alternated — so thermal/allocator
    drift in either direction cancels instead of always penalising
    whichever runs second — with the GC held off the timings."""
    run_a()
    run_b()
    best_a = best_b = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(rounds):
            if i % 2 == 0:
                best_a = min(best_a, run_a())
                best_b = min(best_b, run_b())
            else:
                best_b = min(best_b, run_b())
                best_a = min(best_a, run_a())
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_a, best_b


def timed(fn, *args):
    t0 = time.perf_counter_ns()
    fn(*args)
    return time.perf_counter_ns() - t0


def guard_ratio(guarded):
    """``guarded`` pipeline vs its bare twin on one packet stream: the
    cost of whatever construction bound into ``guarded.process``.  The
    warmup round lets register state converge before anything is timed."""
    stream = packet_stream()
    bare = bare_twin_of(guarded)
    g, b = interleaved_best(lambda: timed(drive, guarded, stream),
                            lambda: timed(drive, bare, stream), ROUNDS)
    return g / b


def assert_within(measure, budget, label):
    """``measure()`` returns a number to hold at or under ``budget``;
    retried up to three times, passing as soon as one clean attempt
    fits.  Returns the best attempt."""
    values = []
    for _ in range(3):
        value = measure()
        values.append(value)
        if value <= budget:
            break
    assert min(values) <= budget, (
        f"{label}: {min(values):.3f} over budget {budget}; attempts: "
        + ", ".join(f"{v:.3f}" for v in values))
    return min(values)


def substrate_scenario(flow_s=2.0, stagger_s=0.0, with_perfsonar=False):
    """The substrate end-to-end workload (test_substrate_perf.py's
    shape): a monitored two-flow TCP scenario over the Fig. 8 topology.
    Construction binds whatever instrumentation is live at call time."""
    from repro.experiments.common import Scenario, ScenarioConfig

    scenario = Scenario(
        ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                       reference_rtt_ms=40.0),
        with_perfsonar=with_perfsonar,
    )
    scenario.add_flow(0, duration_s=flow_s)
    scenario.add_flow(1, start_s=stagger_s, duration_s=flow_s)
    return scenario


def timed_run(scenario, until_s):
    """Wall ns of the event loop only: construction is allocator-heavy
    and noisy, and the budgets are about the steady-state hot path."""
    gc.collect()
    return timed(scenario.run, until_s)
