"""The Logstash data-processing pipeline of Fig. 7.

"Logstash ingests the data through the input plugins, transforms and
processes it through the filters, and ships it to the database through
the OpenSearch output plugin."

The control plane's structured reports (Report_v1) enter through the
:class:`TcpInputPlugin`; filters add the metadata OpenSearch requires
(producing Report_v2) or perform perfSONAR's default aggregation; the
:class:`OpenSearchOutputPlugin` writes to the archive.

The default perfSONAR 5 behaviour the paper criticises — collapsing a
test's samples into a single aggregate value — is modelled by
:class:`AggregateTestFilter`, used by the *regular* perfSONAR node's
pipeline (Table 1's granularity comparison).
"""

from __future__ import annotations

import json
import time
from typing import Callable, List, Optional, Union

from repro import telemetry
from repro.telemetry import profiling, provenance
from repro.resilience import faults
from repro.resilience.delivery import SequenceDedup
from repro.resilience.faults import BackpressureError
from repro.perfsonar.opensearch import OpenSearchStore

#: A filter returns its input, a new dict, or ``None`` (drop).  It never
#: mutates its argument: the pipeline makes no defensive copy, and a
#: shipper may offer the same event again on a retry.
FilterFn = Callable[[dict], Optional[dict]]


class LogstashPipeline:
    """inputs → filters (in order, None drops the event) → outputs."""

    def __init__(self, name: str = "perfsonar") -> None:
        self.name = name
        self.filters: List[FilterFn] = []
        self.outputs: List[Callable[[dict], None]] = []
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
                "wall-clock time spent in the filter chain per event",
                labels=("pipeline",)).labels(name)

    def add_filter(self, fn: FilterFn) -> None:
        self.filters.append(fn)

    def add_output(self, fn: Callable[[dict], None]) -> None:
        self.outputs.append(fn)

    def process(self, event: dict) -> Optional[dict]:
        prof = self._prof
        if prof is not None:
            prof.begin("logstash.process")
        try:
            self.events_in += 1
            tel = self._tel_events
            t0 = time.perf_counter_ns() if tel is not None else 0
            doc: Optional[dict] = event
            for fn in self.filters:
                doc = fn(doc)
                if doc is None:
                    self.events_dropped += 1
                    if self._trace is not None:
                        self._trace.report_event("archiver", "logstash-drop",
                                                 self.name,
                                                 doc_type=event.get("type"))
                    if tel is not None:
                        self._tel_filter_ns.observe(time.perf_counter_ns() - t0)
                        tel.labels(self.name, "dropped").inc()
                    return None
            if self._trace is not None:
                self._trace.report_event("archiver", "logstash-ship", self.name,
                                         doc_type=doc.get("type"))
            if tel is not None:
                self._tel_filter_ns.observe(time.perf_counter_ns() - t0)
                tel.labels(self.name, "shipped").inc()
            for out in self.outputs:
                out(doc)
            self.events_out += 1
            return doc
        finally:
            if prof is not None:
                prof.end()


class TcpInputPlugin:
    """The TCP input plugin the proposed system uses to connect the
    switch control plane to Logstash (§3.3.5).  ``ingest`` models a
    newline-delimited JSON message arriving on the socket (already
    parsed); ``ingest_line`` takes the raw line and hardens the
    pipeline against malformed/truncated input: bad lines are dropped
    and counted (``repro_logstash_malformed_total``) instead of raising
    mid-pipeline.

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

    def ingest(self, event: dict) -> Optional[dict]:
        if self._faults is not None and self._faults.logstash_stalled():
            raise BackpressureError(
                f"logstash input on port {self.port} is stalled")
        if not isinstance(event, dict):
            self._drop_malformed("not a JSON object")
            return None
        self.messages += 1
        return self.pipeline.process(event)

    def ingest_line(self, line: Union[str, bytes]) -> Optional[dict]:
        """One newline-delimited JSON message straight off the socket."""
        try:
            event = json.loads(line)
        except (ValueError, TypeError, UnicodeDecodeError):
            # json.JSONDecodeError subclasses ValueError; truncated or
            # binary garbage must never take the pipeline thread down.
            if self._faults is not None and self._faults.logstash_stalled():
                raise BackpressureError(
                    f"logstash input on port {self.port} is stalled")
            self._drop_malformed("undecodable line")
            return None
        return self.ingest(event)

    # Callable so it can be handed around as a plain report sink.
    __call__ = ingest


class OpenSearchOutputPlugin:
    """Routes each event to an index chosen by its ``type`` field.

    When built with a :class:`~repro.resilience.delivery.SequenceDedup`
    it is idempotent on the shipper's ``(_shipper, _seq)`` envelope:
    at-least-once redelivery upstream plus dedup here yields an
    exactly-once archive.  A sequence is recorded as seen only *after*
    ``store.index`` returns — a write that fails mid-flight stays
    unrecorded, so its retry is not mistaken for a duplicate.
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
        self._tel_duplicates = None
        if telemetry.enabled():
            self._tel_duplicates = telemetry.counter(
                "repro_archiver_duplicates_total",
                "redelivered reports dropped by archiver-side sequence "
                "dedup")

    def __call__(self, event: dict) -> None:
        # Un-enveloped documents pay only this probe.
        enveloped = self.dedup is not None and "_seq" in event
        if enveloped:
            source, seq = event.get("_shipper", "?"), event["_seq"]
            if self.dedup.is_duplicate(source, seq):
                self.duplicates_dropped += 1
                if self._tel_duplicates is not None:
                    self._tel_duplicates.inc()
                return
        kind = event.get(self.index_field, "unknown")
        self.store.index(f"{self.index_prefix}-{kind}", event)
        if enveloped:
            self.dedup.record(source, seq)
        self.documents_written += 1


# -- stock filters -------------------------------------------------------------


def opensearch_metadata_filter(event: dict) -> dict:
    """The metadata OpenSearch requires (Report_v1 → Report_v2)."""
    out = dict(event)
    out.setdefault("@version", "1")
    out.setdefault("host", "p4-controlplane")
    out["tags"] = [*event.get("tags", ()), "p4-perfsonar"]
    return out


def make_type_filter(allowed: List[str]) -> FilterFn:
    """Keep only events whose ``type`` is in ``allowed``."""

    def fn(event: dict) -> Optional[dict]:
        return event if event.get("type") in allowed else None

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

    def __call__(self, event: dict) -> Optional[dict]:
        etype = event.get("type")
        if etype == "throughput" and "intervals" in event:
            values = [s["throughput_bps"] for s in event["intervals"]]
            out = {k: v for k, v in event.items() if k != "intervals"}
            out["value"] = sum(values) / len(values) if values else 0.0
            self._count(etype)
            return out
        if etype == "rtt" and "samples_ms" in event:
            samples = event["samples_ms"]
            out = {k: v for k, v in event.items() if k != "samples_ms"}
            if samples:
                out["min_ms"] = min(samples)
                out["max_ms"] = max(samples)
                out["mean_ms"] = sum(samples) / len(samples)
            self._count(etype)
            return out
        return event
