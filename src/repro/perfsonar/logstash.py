"""The Logstash data-processing pipeline of Fig. 7.

"Logstash ingests the data through the input plugins, transforms and
processes it through the filters, and ships it to the database through
the OpenSearch output plugin."

The control plane's structured reports (Report_v1) enter through the
:class:`TcpInputPlugin`; filters add the metadata OpenSearch requires
(producing Report_v2) or perform perfSONAR's default aggregation; the
:class:`OpenSearchOutputPlugin` writes to the archive.  As in Logstash,
filters and outputs run on batches: every stage takes a
:class:`~repro.core.reports.Block` of runs — one extraction tick's
reports, a :class:`~repro.core.reports.Run` per stream — and acts once per
run: the pipeline counts a run's documents, a filter keeps or drops a
run whole unless the field it reads varies inside it, and the output
routes a run to its index and writes the block through the store's one
bulk path.  Report_v1 → Report_v2 is per block: the metadata is appended
to the block's tail, once, and the runs pass through as they came.

The default perfSONAR 5 behaviour the paper criticises — collapsing a
test's samples into a single aggregate value — is modelled by
:class:`AggregateTestFilter`, used by the *regular* perfSONAR node's
pipeline (Table 1's granularity comparison).
"""

from __future__ import annotations

import json
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Union

from repro import telemetry
from repro.telemetry import hooks
from repro.core.reports import Block, Learned, Row, Run, document_run
from repro.resilience.faults import BackpressureError
from repro.perfsonar.opensearch import OpenSearchStore

#: A filter takes a block and returns one: its input, or a new
#: :class:`Block` — the runs it keeps (whole, or the documents it keeps
#: of them), and its input's tail or a longer one.  It never mutates its
#: argument: the pipeline makes no defensive copy, and a shipper may
#: offer the same block again on a retry.
FilterFn = Callable[[Block], Block]


def doc_types(block: Block) -> List[Any]:
    """Each document's ``type``, in block order (what a tracer's
    per-report events name)."""
    return [t for run in block for t in run.column("type", tail=block.tail)]


class LogstashPipeline:
    """inputs → filters (in order; a filter drops documents by leaving
    them out) → outputs, one block at a time."""

    def __init__(self, name: str = "perfsonar") -> None:
        self.name = name
        self.filters: List[FilterFn] = []
        self.outputs: List[Callable[[Block], None]] = []
        self.events_in = 0
        self.events_out = 0
        self.events_dropped = 0
        self._trace = hooks.tracer
        self._prof = hooks.phases()
        telemetry.reads(self, counters=[
            ("repro_logstash_events_total",
             "events through the Logstash pipeline, by outcome",
             ("pipeline", "outcome"), lambda: {(name, "shipped"): self.events_out,
                                               (name, "dropped"): self.events_dropped}),
        ])

    def add_filter(self, fn: FilterFn) -> None:
        self.filters.append(fn)

    def add_output(self, fn: Callable[[Block], None]) -> None:
        self.outputs.append(fn)

    def process(self, block: Block) -> Block:
        """Run one block through the filters and hand what survives to
        every output; returns the surviving block."""
        prof = self._prof
        if prof is not None:
            prof.begin("logstash.process")
        try:
            events = block.size
            self.events_in += events
            runs = block
            for fn in self.filters:
                runs = fn(runs)
            kept = runs.size
            self.events_dropped += events - kept
            if runs:
                self.events_out += kept
                for out in self.outputs:
                    out(runs)
            trace = self._trace
            if trace is not None:
                # The report context names one packet per document of
                # the block the control plane shipped: a block shipped
                # or dropped whole records each document under its own,
                # a shipped one once its outputs took it (one that
                # raised shipped nothing).
                kind, seen = ("logstash-ship", runs) if runs else ("logstash-drop", block)
                trace.report_events("archiver", kind, [
                    (self.name, {"doc_type": doc_type}) for doc_type in doc_types(seen)])
            return runs
        finally:
            if prof is not None:
                prof.end()


class TcpInputPlugin:
    """The TCP input plugin the proposed system uses to connect the
    switch control plane to Logstash (§3.3.5).  ``ingest`` models a
    block of newline-delimited JSON messages arriving on the socket
    (already parsed, a run of one each); ``ingest_line`` takes one raw line
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
        self._faults = hooks.injector   # None without a chaos injector
        telemetry.reads(self, counters=[
            ("repro_logstash_malformed_total",
             "malformed/truncated report lines dropped by the TCP input, "
             "per pipeline", {"pipeline": pipeline.name}, lambda: self.malformed),
        ])

    def _drop_malformed(self, reason: str) -> None:
        self.malformed += 1

    def _check_stalled(self) -> None:
        if self._faults is not None and self._faults.logstash_stalled():
            raise BackpressureError(
                f"logstash input on port {self.port} is stalled")

    def ingest(self, block: Block) -> Block:
        """One block of messages; faults are checked once per block."""
        self._check_stalled()
        self.messages += block.size
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
        return self.ingest(Block((document_run(event),)))

    # Callable so it can be handed around as a plain report sink.
    __call__ = ingest


def _position(name: str, keys: tuple) -> Optional[int]:
    return keys.index(name) if name in keys else None


class SequenceDedup:
    """Archiver-side idempotency on the shipper's (source, seq) key.

    Keeps, per source, the highest sequence seen plus a sliding window
    of individual seqs below it, so out-of-order redeliveries dedup
    exactly while memory stays bounded.  Sequences older than the
    window are assumed already archived (conservative: redelivering a
    pruned sequence drops it rather than duplicating it).  The seen set
    is pruned back to the window only once it holds twice the window,
    so a record costs O(1) amortised."""

    def __init__(self, window: int = 8192) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._sources: Dict[str, tuple] = {}  # source -> (max_seq, seen set)
        self.duplicates = 0
        self.assumed_old = 0

    def is_duplicate(self, source: str, seq: int) -> bool:
        entry = self._sources.get(source)
        if entry is None:
            return False
        max_seq, seen = entry
        if seq <= max_seq - self.window:
            self.assumed_old += 1
        elif seq not in seen:
            return False
        self.duplicates += 1
        return True

    def record(self, source: str, seq: int) -> None:
        max_seq, seen = self._sources.get(source, (0, set()))
        seen.add(seq)
        max_seq = max(max_seq, seq)
        if len(seen) >= 2 * self.window:
            seen = self._inside(max_seq, seen)
        self._sources[source] = (max_seq, seen)

    def _inside(self, max_seq: int, seen: set) -> set:
        """The seqs of ``seen`` inside the window below ``max_seq``."""
        floor = max_seq - self.window
        return {s for s in seen if s > floor}

    def seen_count(self, source: str) -> int:
        """How many seqs of ``source`` the window holds (what a
        checkpoint writes)."""
        entry = self._sources.get(source)
        return len(self._inside(*entry)) if entry else 0

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of the per-source high-water marks and
        seen windows (the exactly-once books)."""
        return {
            "window": self.window,
            "duplicates": self.duplicates,
            "assumed_old": self.assumed_old,
            "sources": {src: {"max_seq": max_seq,
                              "seen": sorted(self._inside(max_seq, seen))}
                        for src, (max_seq, seen) in self._sources.items()},
        }

    def restore_state(self, state: dict) -> None:
        self.window = int(state["window"])
        self.duplicates = int(state["duplicates"])
        self.assumed_old = int(state["assumed_old"])
        self._sources = {src: (int(entry["max_seq"]), {int(s) for s in entry["seen"]})
                         for src, entry in state["sources"].items()}


class OpenSearchOutputPlugin:
    """Routes each run to an index chosen by its ``type`` field (read off
    the run, then off the block's tail; a run whose documents vary in it
    is split by value first) and writes the block through the store's
    one bulk path.

    When built with a :class:`SequenceDedup` it is idempotent on the
    shipper's ``(_shipper, _seq)`` envelope, which a block carries in its
    tail: at-least-once redelivery upstream plus dedup here yields an
    exactly-once archive.  An enveloped block pays one probe, and a
    redelivered one is dropped whole.  A sequence is recorded as seen
    only *after* ``store.bulk`` returns — a write that fails mid-flight
    stays unrecorded, so its retry is not mistaken for a duplicate.
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
        #: Documents indexed, by index.
        self.written: Counter = Counter()
        self.duplicates_dropped = 0
        # Learned once each: keys -> index-field position (None: not in
        # the run), type -> index name.
        self._index_at: Dict[tuple, Optional[int]] = Learned(partial(_position, index_field))
        self._names: Dict[Any, str] = Learned(partial("{}-{}".format, index_prefix))
        telemetry.reads(self, counters=[
            ("repro_archiver_duplicates_total",
             "redelivered reports dropped by archiver-side sequence dedup",
             (), lambda: self.duplicates_dropped),
        ])

    @property
    def documents_written(self) -> int:
        return sum(self.written.values())

    def __call__(self, block: Block) -> None:
        envelope = self._envelope(block.tail)
        if envelope is not None and self.dedup.is_duplicate(*envelope):
            self.duplicates_dropped += block.size
            return
        index_at, names = self._index_at, self._names
        tail_keys, tail_values = block.tail
        at = _position(self.index_field, tail_keys)
        shared = names[tail_values[at] if at is not None else "unknown"]
        indices, runs = [], []
        for run in block:
            at = index_at[run.keys]
            if at is not None and at in run.cols:
                # Documents of several types: a run per type, in order.
                column = run.values[at]
                for value in dict.fromkeys(column):
                    runs.append(run.select([v is value or v == value for v in column]))
                    indices.append(names[value])
            else:
                runs.append(run)
                indices.append(shared if at is None else names[run.values[at]])
        self.written.update(self.store.bulk(indices, Block(runs, block.tail)))
        if envelope is not None:
            self.dedup.record(*envelope)

    def _envelope(self, tail: Row) -> Optional[tuple]:
        """The ``(_shipper, _seq)`` key of a block's tail, when this
        plugin dedups and the tail has one."""
        keys, values = tail
        if self.dedup is None or "_seq" not in keys:
            return None
        return (values[keys.index("_shipper")] if "_shipper" in keys else "?",
                values[keys.index("_seq")])


# -- stock filters -------------------------------------------------------------


_METADATA_KEYS = ("@version", "host", "tags")
_METADATA_VALUES = ("1", "p4-controlplane", ("p4-perfsonar",))
#: Keys -> the same keys with the metadata's appended, or ``None`` for
#: keys that already carry a metadata field.
_v2_keys: Dict[tuple, Optional[tuple]] = Learned(
    lambda keys: keys + _METADATA_KEYS if set(_METADATA_KEYS).isdisjoint(keys) else None)


def _v2(keys: tuple, values: tuple) -> Run:
    """One document, its tail folded in, as a Report_v2 run of one: the
    metadata appended, or merged where it already carries some."""
    v2 = _v2_keys[keys]
    if v2 is not None:
        return Run(v2, values + _METADATA_VALUES)
    doc = dict(zip(keys, values))
    doc.setdefault("@version", _METADATA_VALUES[0])
    doc.setdefault("host", _METADATA_VALUES[1])
    doc["tags"] = (*doc.get("tags", ()), *_METADATA_VALUES[2])
    return Run(tuple(doc), tuple(doc.values()))


def opensearch_metadata_filter(block: Block) -> Block:
    """The metadata OpenSearch requires (Report_v1 → Report_v2), appended
    to the block's tail: O(1) per block, and the runs pass through as
    they came.  A block in which a run, or the tail, already carries a
    metadata field (a JSON line from outside the program) has its tail
    folded into its documents instead, and the metadata merged into
    each."""
    keys, values = block.tail
    v2 = _v2_keys[keys]
    if v2 is not None and all(_v2_keys[run.keys] for run in block):
        return Block(block, (v2, values + _METADATA_VALUES))
    return Block([_v2(*row) for row in block.folded()])


def make_type_filter(allowed: List[str]) -> FilterFn:
    """Keep only documents whose ``type`` is in ``allowed``: a run whose
    documents share their type is kept or dropped whole."""

    def fn(block: Block) -> Block:
        out = Block((), block.tail)
        for run in block:
            at = run.at("type")
            if at is not None and at in run.cols:
                run = run.select([t in allowed for t in run.values[at]])
            elif run.column("type", tail=block.tail)[0] not in allowed:
                run = None
            if run is not None:
                out.append(run)
        return out

    return fn


class AggregateTestFilter:
    """perfSONAR's default Logstash behaviour (§2.3): reduce a test's
    interval samples to summary statistics.

    For throughput: only the average is reported.  For RTT: min, max and
    mean.  Events of other types pass through unchanged.
    """

    def __init__(self) -> None:
        #: Sample sets collapsed, by test type.
        self.collapsed_by_type: Counter = Counter()
        telemetry.reads(self, counters=[
            ("repro_logstash_aggregated_total",
             "interval-sample sets collapsed to summary statistics by the "
             "default-perfSONAR aggregation filter, per test type", ("type",),
             lambda: self.collapsed_by_type),
        ])

    @property
    def collapsed(self) -> int:
        return sum(self.collapsed_by_type.values())

    def __call__(self, block: Block) -> Block:
        tail = block.tail
        out = Block((), tail)
        for run in block:
            if "intervals" in run.keys or "samples_ms" in run.keys:
                out += [self._collapse(run.keys, values, tail) for values in run.rows()]
            else:
                out.append(run)
        return out

    def _collapse(self, keys: tuple, values: tuple, tail: Row) -> Run:
        """One test result (pscheduler ships each as a run of one),
        collapsed."""
        run = Run(keys, values)
        event = dict(zip(keys, values))
        etype = run.column("type", tail=tail)[0]
        if etype == "throughput" and "intervals" in event:
            values = [s["throughput_bps"] for s in event["intervals"]]
            out = {k: v for k, v in event.items() if k != "intervals"}
            out["value"] = sum(values) / len(values) if values else 0.0
            self.collapsed_by_type[etype] += 1
            return document_run(out)
        if etype == "rtt" and "samples_ms" in event:
            samples = event["samples_ms"]
            out = {k: v for k, v in event.items() if k != "samples_ms"}
            if samples:
                out["min_ms"] = min(samples)
                out["max_ms"] = max(samples)
                out["mean_ms"] = sum(samples) / len(samples)
            self.collapsed_by_type[etype] += 1
            return document_run(out)
        return run
