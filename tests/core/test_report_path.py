"""The report path keeps rows and columns, not object graphs
(docs/scaling.md, "Allocation discipline"): what a shipped report
retains, the report streams read back from the archive against the
list they replaced, and the limiter's coefficient of variation against
the ``np.mean`` / ``np.std`` body it replaced.
"""

import gc
import random

import numpy as np
import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.core.reports import (AggregateSample, Block, FlowSample, FlowTerminationReport,
                                ForensicsReport, HistogramReport, LimiterReport,
                                LimiterVerdict, MicroburstEvent)
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
    holds an ``Enum`` member, for good.  Now the control plane keeps no
    copy of what it shipped (a tally per type), the store's rows are
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


# -- a report stream is a view over the archive --------------------------------


def _reports(rng):
    """One report of every type the control plane ships, with fields in
    their full range: optional ones both present and absent."""
    head = dict(flow_id=rng.randrange(2**32), src_ip=rng.randrange(2**32),
                dst_ip=rng.randrange(2**32))
    t = rng.randrange(10**12)
    yield FlowSample(t, rng.choice(("rtt", "jitter", "throughput")), **head,
                     src_port=3, dst_port=4, value=rng.random(),
                     boosted=rng.random() < 0.5)
    yield LimiterReport(t, **head, verdict=rng.choice(list(LimiterVerdict)),
                        flight_bytes=1448.0 * rng.randrange(100),
                        flight_cv=rng.random(), loss_delta=rng.randrange(5),
                        rwnd_bytes=65535)
    yield AggregateSample(t, rng.random(), rng.random(), 3, 10**6, 700)
    yield MicroburstEvent(t, 12_345, 4_000_000, 0.04, 17, port_id=2)
    yield FlowTerminationReport(**head, src_port=3, dst_port=4, start_ns=t,
                                end_ns=t + 10**9, total_packets=9, total_bytes=9000,
                                retransmissions=1)
    yield HistogramReport(t, "rtt", "flow", [1000, 2000], [1, 2, 0], 3, 1.0, 2.0, 2.0,
                          2.0, window_count=1, **head)
    yield HistogramReport(t, "queue_depth", "port", [1000], [4, 0], 4, 1.0, 1.0, 1.0,
                          1.0, port_id=1)
    yield ForensicsReport(t, "microburst", t - 10**6, t, 2, 4096, 3, 9000,
                          [{"flow_id": 7, "bytes": 9000, "share": 1.0}],
                          victim_flow_id=None, port_id=0)


def test_every_report_rebuilds_from_its_archived_document():
    """``from_document`` is ``run()`` backwards, through the archive:
    addresses come back from dotted quads, ``time_ns`` from
    ``@timestamp`` seconds."""
    rng = random.Random(0)
    archiver = Archiver()
    sent = [r for _ in range(50) for r in _reports(rng)]
    archiver.sink(Block(r.run() for r in sent))
    record_of = {r.run().values[0]: type(r) for r in sent}
    got = [record_of[t].from_document(doc) for t in record_of
           for doc in archiver.documents(t)]
    assert sorted(map(repr, got)) == sorted(map(repr, sent))


def test_a_report_view_behaves_like_the_list_it_replaced():
    """``len`` is the control plane's tally; iteration, ``[i]`` and
    slices read the archive (``test_control_plane.py`` covers a sink
    that ends in no archive)."""
    rng = random.Random(1)
    archiver = Archiver()
    cp = MonitorControlPlane(Simulator(), P4Monitor(MonitorConfig()),
                             report_sink=archiver.sink)
    assert cp.archive is archiver
    assert not cp.terminations and list(cp.terminations) == []
    reports = [FlowTerminationReport(rng.randrange(2**32), 1, 2, 3, 4, i, i + 10,
                                     5, 500, i % 2) for i in range(6)]
    for report in reports:
        cp._ship(report)
    assert len(cp.terminations) == 6
    assert cp.terminations and list(cp.terminations) == reports
    assert [cp.terminations[i] for i in range(-6, 6)] == reports + reports
    assert cp.terminations[2:5] == reports[2:5]
    with pytest.raises(IndexError):
        cp.terminations[6]


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
