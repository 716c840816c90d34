"""Archive memory budget (the segment layout, docs/scaling.md).

The archive keeps each run the control plane shipped as one segment: a
column per field its documents vary in within the tick, every shared
field once, and a ``range`` of ``_id``s.  A number is 8 B in its run's
typed column, and a run's identity columns (flow id, addresses, ports)
are one selection of the control plane's identity table: 4 B a document
where the run has its own positions, less where the tick's runs share
them.  So what a document costs is its numbers and its positions; its
type, timestamp and metadata are its run's and its block's.  The budget
is that layout's cost with no position shared, per index, weighted by
what the run archived.  Bytes are counted by ``tracemalloc``: what the
archive alone keeps alive, as the drop in traced memory when every
document is deleted.  The run has the shape of the repo benchmark's
``report_ingest`` (:func:`~benchmarks.harness.report_ingest_system`,
about 123k documents).  When each document was a value tuple in a row
store it cost 169 B by this count, and 48 B when a run's numbers were
boxed floats and ints in lists; either is over the budget.
"""

import gc
import tracemalloc

from benchmarks.harness import report_ingest_system, thin_flow_capture

NUMBER = 8        # a number in its run's typed column (``array('d')`` / ``array('q')``)
POSITION = 4      # a selection's position (``array('I')``): identity, or a verdict
#: Per document: each number it alone holds, and the positions by which
#: it selects what it shares with every run over its flows.  A FlowSample
#: holds its value and selects its flow's five identity fields by one
#: position; a LimiterReport holds the mean flight, its CV, the loss sum
#: and the receive window, and selects its identity and its verdict.
#: The positions are counted as though each run had its own (a run
#: compressed to the flows with a sample does; one over every active
#: flow shares them with the tick's other runs).
PER_DOCUMENT = {"p4_throughput": NUMBER + POSITION, "p4_packet_loss": NUMBER + POSITION,
                "p4_rtt": NUMBER + POSITION, "p4_queue_occupancy": NUMBER + POSITION,
                "p4_jitter": NUMBER + POSITION,
                "p4_limiter": 4 * NUMBER + 2 * POSITION}
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
        del ids       # the probe's own ``_id`` strings are not the archive's
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
