"""The perfSONAR archiver, assembled per Fig. 7:

control plane → (TCP input plugin) → Logstash filters → (OpenSearch
output plugin) → OpenSearch store.

:meth:`Archiver.sink` is the report sink handed to
:class:`~repro.core.control_plane.MonitorControlPlane`: it takes one
:class:`~repro.core.reports.Block` of Report_v1 runs per call, and the
block stays one list of runs from the TCP input to the store's bulk
write, each run handled once; the fields its documents share travel
beside it as its tail.  The query helpers are what a Grafana dashboard
would issue against the archive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.telemetry import hooks
from repro.core.reports import MISSING, Block
from repro.perfsonar.logstash import (
    LogstashPipeline,
    OpenSearchOutputPlugin,
    SequenceDedup,
    TcpInputPlugin,
    doc_types,
    opensearch_metadata_filter,
)
from repro.perfsonar.opensearch import OpenSearchStore


class Archiver:
    def __init__(self, store: Optional[OpenSearchStore] = None,
                 index_prefix: str = "pscheduler") -> None:
        self.store = store or OpenSearchStore()
        self.pipeline = LogstashPipeline("archiver")
        self.pipeline.add_filter(opensearch_metadata_filter)
        self.dedup = SequenceDedup()
        self.output = OpenSearchOutputPlugin(self.store, index_prefix=index_prefix,
                                             dedup=self.dedup)
        self.pipeline.add_output(self.output)
        self.tcp_input = TcpInputPlugin(self.pipeline)
        self.index_prefix = index_prefix
        self._trace = hooks.tracer
        _prof = hooks.profiler
        self._prof = _prof if (_prof is not None and _prof.phases) else None
        # A record's field count is observed as it arrives; the record
        # count is that histogram's count.
        self._tel_fields = None
        if telemetry.enabled():
            self._tel_fields = telemetry.histogram(
                "repro_archiver_record_fields", "field count per archived record",
                buckets=telemetry.SIZE_BUCKETS)
            telemetry.registry().counter_of(
                "repro_archiver_records_total",
                "records shipped into the archiver by the control plane",
                self._tel_fields)
        telemetry.reads(self, gauges=[
            ("repro_archiver_documents_written",
             "documents the OpenSearch output plugin has indexed, per index",
             ("index",), lambda: self.output.written),
        ])

    def sink(self, block: Block) -> None:
        """The control-plane report sink: one block of Report_v1 runs."""
        prof = self._prof
        if prof is not None:
            prof.begin("archiver.sink")
        try:
            tail_keys = block.tail[0]
            if self._tel_fields is not None:
                for run in block:
                    self._tel_fields.observe_n(len(run.keys) + len(tail_keys), run.n)
            trace = self._trace
            written = self.output.documents_written if trace is not None else 0
            self.tcp_input.ingest(block)
            # Recorded once the archive wrote the block: an attempt the
            # pipeline refused, or a redelivery dropped as a duplicate,
            # archived nothing.
            if trace is not None and self.output.documents_written > written:
                trace.report_events("archiver", "archive", [
                    (self.index_prefix, {"doc_type": doc_type})
                    for doc_type in doc_types(block)])
        finally:
            if prof is not None:
                prof.end()

    # -- checkpoint/restore ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """The archiver state a control-plane checkpoint must carry: the
        dedup high-water marks (exactly-once across a crash-restart).
        The document store itself is the durable side of the pipeline —
        it survives the crash; only the idempotency books need saving."""
        return {"dedup": self.dedup.checkpoint_state()}

    def restore_state(self, state: dict) -> None:
        self.dedup.restore_state(state["dedup"])

    # -- dashboard-style queries -----------------------------------------------

    def _index(self, kind: str) -> str:
        return f"{self.index_prefix}-{kind}"

    def series(self, kind: str, flow_id: Optional[int] = None,
               value_field: str = "value") -> List[tuple]:
        term = {"flow_id": flow_id} if flow_id is not None else None
        return self.store.series(self._index(kind), value_field=value_field, term=term)

    def documents(self, kind: str, **terms) -> List[dict]:
        return self.store.search(self._index(kind), term=terms or None)

    def columns(self, kind: str, fields: Sequence[str]) -> List[list]:
        """``fields`` of every ``kind`` document, one list per field in
        archive order, :data:`~repro.core.reports.MISSING` where a
        document lacks one (:meth:`OpenSearchStore.columns`)."""
        return self.store.columns(self._index(kind), fields, default=MISSING)

    def count(self, kind: str) -> int:
        return self.store.count(self._index(kind))

    # -- distribution documents (repro-histogram-v1 reports) -------------------

    HISTOGRAM_KIND = "repro-histogram-v1"

    def histogram_count(self) -> int:
        return self.count(self.HISTOGRAM_KIND)

    def histogram_documents(self, **terms) -> List[dict]:
        """Archived distribution reports, optionally filtered by exact
        field match (``metric="rtt"``, ``scope="flow"``,
        ``flow_id=...``, ``port_id=...``)."""
        return self.documents(self.HISTOGRAM_KIND, **terms)

    def histogram_latest(self, **terms) -> Optional[dict]:
        """Most recent matching distribution (cumulative counts grow
        monotonically, so the last document is the full distribution)."""
        docs = self.histogram_documents(**terms)
        if not docs:
            return None
        return max(docs, key=lambda d: d.get("@timestamp", 0.0))

    # -- forensics documents (repro-forensics-v1 reports) ----------------------

    FORENSICS_KIND = "repro-forensics-v1"

    def forensics_count(self) -> int:
        return self.count(self.FORENSICS_KIND)

    def forensics_documents(self, **terms) -> List[dict]:
        """Archived culprit-attribution reports, optionally filtered by
        exact field match (``trigger="microburst"``, ``port_id=...``)."""
        return self.documents(self.FORENSICS_KIND, **terms)

    def culprit_flows(self) -> List[int]:
        """Distinct flow ids named as culprits, heaviest-total first —
        what the culprit dashboard panel enumerates its series from."""
        totals: Dict[int, int] = {}
        for doc in self.forensics_documents():
            for culprit in doc.get("culprits", []):
                fid = culprit.get("flow_id")
                if fid is not None:
                    totals[fid] = totals.get(fid, 0) + culprit.get("bytes", 0)
        return sorted(totals, key=lambda fid: totals[fid], reverse=True)

    # -- flight-recorder documents (repro_telemetry events) --------------------

    TELEMETRY_KIND = "repro_telemetry"

    def telemetry_count(self, longterm: bool = False) -> int:
        """Self-telemetry documents a
        :class:`~repro.telemetry.timeseries.TelemetrySampler` archived:
        the raw ones, or with ``longterm`` the bucket means its retention
        folded them into."""
        index = self._index(self.TELEMETRY_KIND)
        return self.store.count(f"{index}-longterm" if longterm else index)

    def telemetry_series(self, metric: str,
                         value_field: str = "value") -> List[tuple]:
        """(t_s, value) series of one instrument metric, straight from the
        archive — what a Grafana panel over the instrument would query."""
        return [
            (doc.get("@timestamp", 0.0), doc.get(value_field, 0.0))
            for doc in self.documents(self.TELEMETRY_KIND, metric=metric)
        ]

    @property
    def measurements_written(self) -> int:
        """Documents indexed outside the flight recorder's index."""
        recorder = self._index(self.TELEMETRY_KIND)
        return sum(n for index, n in self.output.written.items() if index != recorder)

    def telemetry_tail(self, since_ns: int, **query) -> List[dict]:
        """The raw self-telemetry documents from sim time ``since_ns``
        on (``query``: :meth:`OpenSearchStore.tail`'s ``fields`` and
        ``terms``).  The index is in time order: the sampler appends one
        tick at a time and its retention removes only the oldest ticks."""
        return self.store.tail(self._index(self.TELEMETRY_KIND), since_ns,
                               time_field="time_ns", **query)

    def apply_retention(self, policy, now_s: float,
                        kind: Optional[str] = None) -> int:
        """Run a :class:`~repro.perfsonar.opensearch.RetentionPolicy`
        over ``kind``'s raw index, or over every raw index (skipping the
        -longterm companions).  Returns total raw documents pruned."""
        if kind is not None:
            return policy.apply(self.store, self._index(kind), now_s)
        pruned = 0
        for index in list(self.store.indices):
            if index.endswith("-longterm"):
                continue
            pruned += policy.apply(self.store, index, now_s)
        return pruned
