"""The Logstash data-processing pipeline of Fig. 7.

"Logstash ingests the data through the input plugins, transforms and
processes it through the filters, and ships it to the database through
the OpenSearch output plugin."

The control plane's structured reports (Report_v1) enter through the
:class:`TcpInputPlugin`; filters add the metadata OpenSearch requires
(producing Report_v2) or perform perfSONAR's default aggregation; the
:class:`OpenSearchOutputPlugin` writes to the archive.  As in Logstash,
filters and outputs run on batches: every stage takes a
:data:`~repro.core.reports.Block` of ``(keys, values)`` rows — one
extraction tick's reports — and the output writes it through the store's
one bulk path.

The default perfSONAR 5 behaviour the paper criticises — collapsing a
test's samples into a single aggregate value — is modelled by
:class:`AggregateTestFilter`, used by the *regular* perfSONAR node's
pipeline (Table 1's granularity comparison).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro import telemetry
from repro.telemetry import profiling, provenance
from repro.core.reports import Block, Row, document_row
from repro.resilience import faults
from repro.resilience.delivery import SequenceDedup
from repro.resilience.faults import BackpressureError
from repro.perfsonar.opensearch import OpenSearchStore

#: A filter takes a block and returns one: its input, a new list, or a
#: shorter one (the rows it drops are left out).  It never mutates its
#: argument: the pipeline makes no defensive copy, and a shipper may
#: offer the same rows again on a retry.
FilterFn = Callable[[Block], Block]


def row_field(row: Row, name: str, default: Any = None) -> Any:
    """``document.get(name, default)``, read off a row."""
    keys, values = row
    return values[keys.index(name)] if name in keys else default


class LogstashPipeline:
    """inputs → filters (in order; a filter drops rows by leaving them
    out) → outputs, one block at a time."""

    def __init__(self, name: str = "perfsonar") -> None:
        self.name = name
        self.filters: List[FilterFn] = []
        self.outputs: List[Callable[[Block], None]] = []
        self.events_in = 0
        self.events_out = 0
        self.events_dropped = 0
        self._trace = provenance.tracer()
        _prof = profiling.profiler()
        self._prof = _prof if (_prof is not None and _prof.phases) else None
        self._tel_events = None
        if telemetry.enabled():
            self._tel_events = telemetry.counter(
                "repro_logstash_events_total",
                "events through the Logstash pipeline, by outcome",
                labels=("pipeline", "outcome"))
            self._tel_filter_ns = telemetry.histogram(
                "repro_logstash_filter_ns",
                "wall-clock time spent in the filter chain per block",
                labels=("pipeline",)).labels(name)

    def add_filter(self, fn: FilterFn) -> None:
        self.filters.append(fn)

    def add_output(self, fn: Callable[[Block], None]) -> None:
        self.outputs.append(fn)

    def process(self, block: Block) -> Block:
        """Run one block through the filters and hand what survives to
        every output; returns the surviving rows."""
        prof = self._prof
        if prof is not None:
            prof.begin("logstash.process")
        try:
            events = len(block)
            self.events_in += events
            tel = self._tel_events
            t0 = time.perf_counter_ns() if tel is not None else 0
            rows = block
            for fn in self.filters:
                rows = fn(rows)
            dropped = events - len(rows)
            self.events_dropped += dropped
            trace = self._trace
            if trace is not None:
                # A tracer's report context covers one row (the control
                # plane ships blocks of one while it is bound).
                kind, seen = ("logstash-ship", rows) if rows else ("logstash-drop", block)
                for row in seen:
                    trace.report_event("archiver", kind, self.name,
                                       doc_type=row_field(row, "type"))
            if tel is not None:
                self._tel_filter_ns.observe(time.perf_counter_ns() - t0)
                if dropped:
                    tel.labels(self.name, "dropped").inc(dropped)
                if rows:
                    tel.labels(self.name, "shipped").inc(len(rows))
            if rows:
                for out in self.outputs:
                    out(rows)
                self.events_out += len(rows)
            return rows
        finally:
            if prof is not None:
                prof.end()


class TcpInputPlugin:
    """The TCP input plugin the proposed system uses to connect the
    switch control plane to Logstash (§3.3.5).  ``ingest`` models a
    block of newline-delimited JSON messages arriving on the socket
    (already parsed, one row each); ``ingest_line`` takes one raw line
    and hardens the pipeline against malformed/truncated input: bad
    lines are dropped and counted (``repro_logstash_malformed_total``)
    instead of raising mid-pipeline.

    While an injected ``logstash_stall`` fault window is active the
    input refuses delivery with
    :class:`~repro.resilience.faults.BackpressureError` — the slow-
    consumer failure the shipper's spool absorbs."""

    def __init__(self, pipeline: LogstashPipeline, port: int = 5044) -> None:
        self.pipeline = pipeline
        self.port = port
        self.messages = 0
        self.malformed = 0
        self._faults = faults.injector()   # None without a chaos injector
        self._tel_malformed = None
        if telemetry.enabled():
            self._tel_malformed = telemetry.counter(
                "repro_logstash_malformed_total",
                "malformed/truncated report lines dropped by the TCP "
                "input, per pipeline",
                labels=("pipeline",)).labels(pipeline.name)

    def _drop_malformed(self, reason: str) -> None:
        self.malformed += 1
        if self._tel_malformed is not None:
            self._tel_malformed.inc()

    def _check_stalled(self) -> None:
        if self._faults is not None and self._faults.logstash_stalled():
            raise BackpressureError(
                f"logstash input on port {self.port} is stalled")

    def ingest(self, block: Block) -> Block:
        """One block of messages; faults are checked once per block."""
        self._check_stalled()
        self.messages += len(block)
        return self.pipeline.process(block)

    def ingest_line(self, line: Union[str, bytes]) -> Optional[Block]:
        """One newline-delimited JSON message straight off the socket,
        ingested as a block of one."""
        try:
            event = json.loads(line)
        except (ValueError, TypeError, UnicodeDecodeError):
            # json.JSONDecodeError subclasses ValueError; truncated or
            # binary garbage must never take the pipeline thread down.
            event = None
        if not isinstance(event, dict):
            self._check_stalled()
            self._drop_malformed("not a JSON object")
            return None
        return self.ingest([document_row(event)])

    # Callable so it can be handed around as a plain report sink.
    __call__ = ingest


class OpenSearchOutputPlugin:
    """Routes each row to an index chosen by its ``type`` field and
    writes the block through the store's one bulk path.

    When built with a :class:`~repro.resilience.delivery.SequenceDedup`
    it is idempotent on the shipper's ``(_shipper, _seq)`` envelope:
    at-least-once redelivery upstream plus dedup here yields an
    exactly-once archive.  Only an enveloped schema pays the probe.  A
    sequence is recorded as seen only *after* ``store.bulk`` returns — a
    write that fails mid-flight stays unrecorded, so its retry is not
    mistaken for a duplicate.
    """

    def __init__(
        self,
        store: OpenSearchStore,
        index_prefix: str = "pscheduler",
        index_field: str = "type",
        dedup: Optional[SequenceDedup] = None,
    ) -> None:
        self.store = store
        self.index_prefix = index_prefix
        self.index_field = index_field
        self.dedup = dedup
        self.documents_written = 0
        self.duplicates_dropped = 0
        # keys -> (index-field position, _seq position, _shipper position),
        # and type -> index name: both resolved once.
        self._plans: Dict[tuple, tuple] = {}
        self._names: Dict[Any, str] = {}
        self._tel_duplicates = None
        if telemetry.enabled():
            self._tel_duplicates = telemetry.counter(
                "repro_archiver_duplicates_total",
                "redelivered reports dropped by archiver-side sequence "
                "dedup")

    def _plan(self, keys: tuple) -> tuple:
        """Where a schema keeps its index field and envelope."""
        def at(name):
            return keys.index(name) if name in keys else None
        enveloped = self.dedup is not None and "_seq" in keys
        plan = self._plans[keys] = (at(self.index_field),
                                    at("_seq") if enveloped else None,
                                    at("_shipper"))
        return plan

    def __call__(self, block: Block) -> None:
        plans, names = self._plans, self._names
        rows, indices, fresh = [], [], []
        for row in block:
            keys, values = row
            plan = plans.get(keys) or self._plan(keys)
            kind_at, seq_at, source_at = plan
            if seq_at is not None:
                key = (values[source_at] if source_at is not None else "?",
                       values[seq_at])
                if key in fresh or self.dedup.is_duplicate(*key):
                    self.duplicates_dropped += 1
                    if self._tel_duplicates is not None:
                        self._tel_duplicates.inc()
                    continue
                fresh.append(key)
            kind = values[kind_at] if kind_at is not None else "unknown"
            index = names.get(kind)
            if index is None:
                index = names[kind] = f"{self.index_prefix}-{kind}"
            rows.append(row)
            indices.append(index)
        if rows:
            self.store.bulk(indices, rows)
            for key in fresh:
                self.dedup.record(*key)
            self.documents_written += len(rows)


# -- stock filters -------------------------------------------------------------


_METADATA_KEYS = ("@version", "host", "tags")
_METADATA_VALUES = ("1", "p4-controlplane", ("p4-perfsonar",))
#: Report_v1 keys -> (Report_v2 keys, the value suffix that makes them).
_v2_schemas: Dict[tuple, tuple] = {}


def _v2_schema(keys: tuple) -> Optional[tuple]:
    """A schema's Report_v2 extension, or ``None`` when it already
    carries a metadata field (then each row takes the general path)."""
    if not set(_METADATA_KEYS).isdisjoint(keys):
        return None
    schema = _v2_schemas[keys] = (keys + _METADATA_KEYS, _METADATA_VALUES)
    return schema


def _with_metadata(keys: tuple, values: tuple) -> Row:
    doc = dict(zip(keys, values))
    doc.setdefault("@version", _METADATA_VALUES[0])
    doc.setdefault("host", _METADATA_VALUES[1])
    doc["tags"] = (*doc.get("tags", ()), *_METADATA_VALUES[2])
    return tuple(doc), tuple(doc.values())


def opensearch_metadata_filter(block: Block) -> Block:
    """The metadata OpenSearch requires (Report_v1 → Report_v2): each
    schema is extended once, each row by one tuple concatenation."""
    out = []
    append = out.append
    for keys, values in block:
        schema = _v2_schemas.get(keys) or _v2_schema(keys)
        append((schema[0], values + schema[1]) if schema is not None
               else _with_metadata(keys, values))
    return out


def make_type_filter(allowed: List[str]) -> FilterFn:
    """Keep only rows whose ``type`` is in ``allowed``."""

    def fn(block: Block) -> Block:
        return [row for row in block if row_field(row, "type") in allowed]

    return fn


class AggregateTestFilter:
    """perfSONAR's default Logstash behaviour (§2.3): reduce a test's
    interval samples to summary statistics.

    For throughput: only the average is reported.  For RTT: min, max and
    mean.  Events of other types pass through unchanged.
    """

    def __init__(self) -> None:
        self.collapsed = 0
        self._tel_aggregated = None
        if telemetry.enabled():
            self._tel_aggregated = telemetry.counter(
                "repro_logstash_aggregated_total",
                "interval-sample sets collapsed to summary statistics by "
                "the default-perfSONAR aggregation filter, per test type",
                labels=("type",))

    def _count(self, etype: str) -> None:
        self.collapsed += 1
        if self._tel_aggregated is not None:
            self._tel_aggregated.labels(etype).inc()

    def __call__(self, block: Block) -> Block:
        return [self._collapse(row)
                if "intervals" in row[0] or "samples_ms" in row[0] else row
                for row in block]

    def _collapse(self, row: Row) -> Row:
        event = dict(zip(*row))
        etype = event.get("type")
        if etype == "throughput" and "intervals" in event:
            values = [s["throughput_bps"] for s in event["intervals"]]
            out = {k: v for k, v in event.items() if k != "intervals"}
            out["value"] = sum(values) / len(values) if values else 0.0
            self._count(etype)
            return document_row(out)
        if etype == "rtt" and "samples_ms" in event:
            samples = event["samples_ms"]
            out = {k: v for k, v in event.items() if k != "samples_ms"}
            if samples:
                out["min_ms"] = min(samples)
                out["max_ms"] = max(samples)
                out["mean_ms"] = sum(samples) / len(samples)
            self._count(etype)
            return document_row(out)
        return row
