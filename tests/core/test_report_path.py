"""The report path keeps rows and columns, not object graphs
(docs/scaling.md, "Allocation discipline"): what a shipped report
retains, the chunked sample log against a plain list, and the limiter's
coefficient of variation against the ``np.mean`` / ``np.std`` body it
replaced.
"""

import dataclasses
import gc
import random

import numpy as np
import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane, TrackedFlow
from repro.core.monitor import P4Monitor
from repro.core.reports import FlowSample, FlowSampleLog, LimiterReport, LimiterVerdict
from repro.core.stats import coefficient_of_variation
from repro.netsim.engine import Simulator
from repro.netsim.packet import FiveTuple, make_ack_packet, make_data_packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.units import millis
from repro.perfsonar.archiver import Archiver


# -- allocation discipline ------------------------------------------------------


def test_a_shipped_report_retains_no_tracked_container():
    """The report-path twin of
    ``test_buffering_and_flushing_allocate_no_per_copy_container``, as a
    count, not a clock.  A sample used to leave tracked objects behind:
    its dataclass instance, then its archived dict, then one row tuple
    in the sample log and one in the store, and every limiter row, which
    holds an ``Enum`` member, for good.  Now a tick leaves one chunk per
    log (a tuple and its columns) and an aggregate, the store's rows are
    untracked once the collector has seen them, and what is left does
    not grow with the documents shipped: a constant (the window's 20
    metric ticks) plus the tracked flows, with no full collection."""
    sim = Simulator()
    config = MonitorConfig(flow_slots=1024, long_flow_bytes=1000,
                           idle_intervals_before_evict=10**6)
    for kind in MetricKind:
        config.metric(kind).samples_per_second = 10.0
    monitor = P4Monitor(config, sim=sim)
    archiver = Archiver()
    cp = MonitorControlPlane(sim, monitor, report_sink=archiver.sink)
    cp.start()
    for i in range(300):
        ft = FiveTuple(0x0A000000 + i, 0x0A010000 + i, 40000, 5201)
        monitor.receive_copy(MirrorCopy(
            make_data_packet(ft, seq=1, payload_len=1400, ip_id=1),
            TapDirection.INGRESS, 1_000 + i))
        monitor.receive_copy(MirrorCopy(
            make_ack_packet(ft.reversed(), ack=1401),
            TapDirection.INGRESS, 2_000_000 + i))
    sim.run_until(millis(150))     # per-flow state (limiter windows) exists
    assert len(cp.flows) > 200

    gc.collect()
    tracked = len(gc.get_objects())
    shipped = archiver.output.documents_written
    full = gc.get_stats()[2]["collections"]
    sim.run_until(millis(650))
    full = gc.get_stats()[2]["collections"] - full
    gc.collect()
    grown = len(gc.get_objects()) - tracked
    shipped = archiver.output.documents_written - shipped

    assert shipped >= 5000
    assert cp.jitter_samples and cp.limiter_reports
    assert grown <= 300 + len(cp.flows), (grown, shipped)
    assert full == 0


# -- the chunked log is a list of samples to everything that reads it -----------


def _samples(n, rng):
    return [FlowSample(time_ns=rng.randrange(10**9), metric="rtt",
                       flow_id=rng.randrange(2**32), src_ip=1, dst_ip=2,
                       src_port=3, dst_port=4, value=rng.random(),
                       boosted=rng.random() < 0.5) for _ in range(n)]


def _tick(n, rng):
    """What a tick archives: one chunk (its flows, the tick's constants,
    its values) and the samples it stands for."""
    t, boosted = rng.randrange(10**9), rng.random() < 0.5
    flows = [TrackedFlow(rng.randrange(2**32), 0, 0, 0, 1, 2, 3, rng.randrange(2**16), 0)
             for _ in range(n)]
    values = [rng.random() for _ in range(n)]
    columns = (t, "rtt", None, None, None, None, None, values, boosted)
    return (flows, columns), [FlowSample(t, "rtt", f.flow_id, 1, 2, 3, f.dst_port, v, boosted)
                              for f, v in zip(flows, values)]


def test_flow_sample_log_behaves_like_the_list_it_replaced():
    rng = random.Random(0)
    plain, log = [], FlowSampleLog()
    assert not log and len(log) == 0 and log == [] and list(log) == [] and log.rows == []
    # Single appends interleaved with tick chunks (an empty tick adds nothing).
    for step in ("append", 3, "append", 0, 1, "append", "append", 4):
        if step == "append":
            sample = _samples(1, rng)[0]
            log.append(sample)
            plain.append(sample)
        else:
            chunk, samples = _tick(step, rng)
            log.add_chunk(*chunk)
            plain.extend(samples)
        assert len(log) == len(plain) and list(log) == plain
    assert log and len(log) == 12
    assert [s.value for s in log] == [s.value for s in plain]
    assert all(type(s) is FlowSample for s in log)
    assert [log[i] for i in range(-12, 12)] == plain + plain
    for item in (slice(2, 5), slice(None, None, -2), slice(9, None), slice(20, None),
                 slice(3, 11, 3), slice(-4, -1)):
        assert log[item] == plain[item]
    assert type(log[1:]) is list
    for i in (12, -13):
        with pytest.raises(IndexError):
            log[i]
    assert log == plain and log == FlowSampleLog(plain) and FlowSampleLog(plain) == log
    assert log != plain[:-1] and log != FlowSampleLog(plain[1:]) and log != None  # noqa: E711
    rows = log.rows
    assert rows == [dataclasses.astuple(s) for s in plain]
    # Rows are built when read: fresh tuples of atoms, untracked once the
    # collector has seen them, and none of them is the log's.
    gc.collect()
    assert all(type(row) is tuple and not gc.is_tracked(row) for row in rows)
    assert not any(a is b for a, b in zip(rows, log.rows))
    log.clear()
    assert not log and log == [] and log.rows == []


def test_a_tick_chunk_keeps_no_object_per_report():
    """A tick of limiter reports used to leave one tuple per report that
    the collector tracked for good (each holds a ``LimiterVerdict``).
    A chunk is a handful of lists whatever the tick's size."""
    rng = random.Random(1)
    log = FlowSampleLog(record=LimiterReport)
    n = 1000
    flows = [TrackedFlow(i, 0, 0, 0, 1, 2, 3, 4, 0) for i in range(n)]
    verdicts = [rng.choice(list(LimiterVerdict)) for _ in range(n)]
    gc.collect()
    before = len(gc.get_objects())
    log.add_chunk(flows, (5, None, None, None, verdicts,
                          [1448.0] * n, [0.5] * n, [0] * n, [65535] * n))
    gc.collect()
    assert len(gc.get_objects()) - before <= 6      # the chunk, its columns, 4 lists
    assert len(log) == n and log[-1].verdict is verdicts[-1]
    assert log[3] == LimiterReport(5, 3, 1, 2, verdicts[3], 1448.0, 0.5, 0, 65535)


# -- coefficient of variation: the ufuncs, to the bit ---------------------------


def _cv_reference(values):
    """The body this commit replaced."""
    x = np.asarray(list(values), dtype=float)
    if x.size < 2:
        return 0.0
    mean = float(np.mean(x))
    if mean == 0.0:
        return 0.0
    return float(np.std(x)) / mean


def test_cv_is_bit_identical_to_the_numpy_wrappers():
    rng = random.Random(17)
    draws = (
        lambda: float(rng.randrange(0, 10**7)),      # flight sizes: whole bytes
        lambda: rng.uniform(0.0, 1e7),
        lambda: rng.uniform(-1.0, 1.0),
        lambda: rng.random() * 10.0 ** rng.randrange(-12, 12),
    )
    for i in range(100_000):
        n = rng.randrange(0, 17)
        if i % 50 == 0:
            window = [rng.choice((0.0, 1448.0, 1e-300))] * n   # all-equal, all-zero
        else:
            draw = draws[i % 4]
            window = [draw() for _ in range(n)]
        got, want = coefficient_of_variation(window), _cv_reference(window)
        assert type(got) is float
        assert got == want or (got != got and want != want), (window, got, want)
