"""Delivery overhead budget (ROADMAP 3(e)).

A fault-free :class:`~repro.resilience.delivery.ResilientShipper` in
front of the archiver adds, per block, one ``_seq``, one transport call
and one dedup probe.  Its ``(_seq, _shipper)`` envelope rides in the
block's tail, so nothing is added per row, and the shipper path must
stay within ``BUDGET`` of the direct sink.  The run has the shape of
the repo benchmark's ``report_ingest``
(:func:`~benchmarks.harness.report_ingest_system`): 800 thin flows,
every metric class at 10 samples/s, about 123k archived documents in
~0.4 s, so the report path is most of what is timed.  The ratio is
best shipper run over best direct run, ten alternated pairs.
"""

from repro.resilience.delivery import FaultyTransport, ResilientShipper

from benchmarks.harness import (assert_within, interleaved_best,
                                report_ingest_system, thin_flow_capture,
                                timed_replay)

ROUNDS = 10
BUDGET = 1.05


def _measure_ratio(capture, written):
    def run(ship):
        system = report_ingest_system(ship)
        elapsed = timed_replay(system, capture)
        written.add(system[2].output.documents_written)
        return elapsed

    shipped, direct = interleaved_best(
        lambda: run(lambda sim, sink: ResilientShipper(sim, FaultyTransport(sink))),
        lambda: run(None), ROUNDS)
    return shipped / direct


def test_fault_free_shipper_within_budget():
    capture = thin_flow_capture()
    written = set()
    ratio = assert_within(lambda: _measure_ratio(capture, written), BUDGET,
                          "fault-free shipper / direct sink")
    # Both paths archived the same documents, and plenty of them.
    (docs,) = written
    assert docs > 100_000
    print(f"\nfault-free shipper: {ratio:.3f}x the direct sink "
          f"({docs} documents per run)")
