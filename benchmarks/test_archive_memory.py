"""Archive memory budget (the segment layout, docs/scaling.md).

The archive keeps each run the control plane shipped as one segment: a
column per field its documents vary in within the tick, every shared
field once, and a ``range`` of ``_id``s.  So what a document costs is a
reference in each of its columns plus the value objects only it holds;
its type, timestamp and metadata are its run's and its block's, and the
five identity columns (flow id, addresses, ports) of a tick in which
every active flow has a sample are shared by every run built over the
same flow set.  The budget is that layout's cost with nothing shared
that a tick may fail to share, per index, weighted by what the run
archived.  Bytes are counted by ``tracemalloc``: what the archive alone
keeps alive, as the drop in traced memory when every document is
deleted.  The run has the shape of the repo benchmark's
``report_ingest`` (:func:`~benchmarks.harness.report_ingest_system`,
about 123k documents).  When each document was a value tuple in a row
store it cost 169 B by this count; a store that went back to a tuple,
or a dict, per document is over the budget.
"""

import gc
import tracemalloc

from benchmarks.harness import report_ingest_system, thin_flow_capture

SLOT = 8          # a column's reference to one document's value
FLOAT = 24        # a float object one document holds alone
INT = 32          # an int above the small-int cache, likewise
#: Per document: a slot for each field that varies within a tick and
#: the objects it alone holds.  A FlowSample varies in its flow's five
#: identity fields and its value (a float); a LimiterReport in its
#: flow's id and addresses, the verdict (an interned string), the mean
#: flight and its CV (floats), the loss sum (a small int) and the
#: receive window (an int).
PER_DOCUMENT = {"p4_throughput": 6 * SLOT + FLOAT, "p4_packet_loss": 6 * SLOT + FLOAT,
                "p4_rtt": 6 * SLOT + FLOAT, "p4_queue_occupancy": 6 * SLOT + FLOAT,
                "p4_jitter": 6 * SLOT + FLOAT,
                "p4_limiter": 8 * SLOT + 2 * FLOAT + INT}
#: A lone document (the aggregate sample): its segment, run, value tuple
#: and ``_id`` range, and its values.
RUN_OF_ONE = 512


def _archive_bytes(capture):
    """``(bytes the archive alone retains, documents, {index: count})``
    after replaying ``capture``."""
    gc.collect()
    tracemalloc.start()
    try:
        sim, monitor, archiver = report_ingest_system()
        receive = monitor.receive_copy
        for until_ns, copies in capture:
            for copy in copies:
                receive(copy)
            sim.run_until(until_ns)
        store = archiver.store
        counts = {index: store.count(index) for index in store.indices}
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for index in counts:
            ids, = store.columns(index, ("_id",), before=float("inf"))
            assert store.delete(index, ids) == counts[index]
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], sum(counts.values()), counts
    finally:
        tracemalloc.stop()


def test_the_archive_keeps_a_document_in_its_segment_layout():
    retained, docs, counts = _archive_bytes(thin_flow_capture())
    prefix = "pscheduler-"
    budget = sum(n * PER_DOCUMENT.get(index[len(prefix):], RUN_OF_ONE)
                 for index, n in counts.items()) / docs
    per_document = retained / docs
    print(f"\narchive: {per_document:.1f} B per document retained, budget "
          f"{budget:.1f} B ({docs} documents)")
    assert docs > 100_000
    assert per_document <= budget
