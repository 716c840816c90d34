"""The report path keeps rows, not object graphs (docs/scaling.md,
"Allocation discipline"): what a shipped report retains, the row-backed
sample log against a plain list, and the limiter's coefficient of
variation against the ``np.mean`` / ``np.std`` body it replaced.
"""

import gc
import random

import numpy as np
import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.core.reports import FlowSample, FlowSampleLog
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
    count, not a clock.  A sample used to leave three tracked objects
    behind (its dataclass instance, its archived dict, the dict's
    ``tags`` list); rows leave none once the collector has seen them,
    and what is left is the one ``LimiterReport`` instance per six
    reports."""
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
    assert grown <= 0.25 * shipped + 100, (grown, shipped)
    assert full <= 1


# -- the row log is a list of samples to everything that reads it ---------------


def _samples(n, rng):
    return [FlowSample(time_ns=rng.randrange(10**9), metric="rtt",
                       flow_id=rng.randrange(2**32), src_ip=1, dst_ip=2,
                       src_port=3, dst_port=4, value=rng.random(),
                       boosted=rng.random() < 0.5) for _ in range(n)]


def test_flow_sample_log_behaves_like_the_list_it_replaced():
    rng = random.Random(0)
    plain = _samples(7, rng)
    log = FlowSampleLog()
    assert not log and len(log) == 0 and log == [] and list(log) == []
    for sample in plain:
        log.append(sample)
    assert log and len(log) == 7
    assert list(log) == plain and [s.value for s in log] == [s.value for s in plain]
    assert all(type(s) is FlowSample for s in log)
    assert log[0] == plain[0] and log[3] == plain[3] and log[-1] == plain[-1]
    assert log[2:5] == plain[2:5] and log[::-2] == plain[::-2] and log[9:] == []
    assert type(log[1:]) is list
    with pytest.raises(IndexError):
        log[7]
    assert log == plain and log == FlowSampleLog(plain) and FlowSampleLog(plain) == log
    assert log != plain[:-1] and log != FlowSampleLog(plain[1:]) and log != None  # noqa: E711
    gc.collect()       # exact tuples of atoms: untracked once the collector has seen them
    assert all(type(row) is tuple and not gc.is_tracked(row) for row in log.rows)
    log.clear()
    assert not log and log == []


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
