"""An in-memory OpenSearch-like document store.

perfSONAR 5 archives measurements in OpenSearch; the paper's system
reuses that archive through Logstash's OpenSearch output plugin (Fig. 7).
This store models the slice of OpenSearch the archiver uses: named
indices of JSON documents, term/range queries, sort, and the handful of
metric aggregations dashboards ask for.

Documents are kept column-stride, as OpenSearch keeps doc values, not as
dicts (docs/scaling.md, "Allocation discipline"): an index is a list of
**segments**, one per :class:`~repro.core.reports.Run` the bulk path
took — the run itself (a column per field its documents vary in, each
shared field once), one reference to its block's tail (the fields its
documents share with the rest of the block, read as their suffix) and
its ``_id``s, a ``range`` while no delete has cut into the middle of it.
The store never transposes or converts: a run arrives column-stride
from whoever built it (the control plane builds each tick's from the
columns it holds: its numbers typed, 8 B a value, its identity a
selection of the control plane's table) and is filed as it came; every
read hands out the plain ``float`` / ``int`` / ``str`` values a column
holds.  ``_index`` is the index a segment sits in, every query runs
over the segments, a field all of a segment's documents share is tested
once for all of them, and only the documents a query selects become
dicts again.  Every top-level ``list`` arrives as a
tuple — what lets the collector stop tracking the run; JSON has no
tuples, so this is lossless for every document this system ships.  On
the way out every tuple becomes a fresh list and every nested container
a copy: a caller can never reach the archive's own.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, takewhile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.reports import MISSING, Block, Row, Run, document_run
from repro.telemetry import hooks
from repro.resilience.faults import ArchiveUnavailable


def _thaw(value: Any) -> Any:
    """A stored field as a caller may own it: tuples and lists become
    fresh lists, dicts fresh dicts, all the way down."""
    kind = type(value)
    if kind is tuple or kind is list:
        return [_thaw(v) if type(v) in _CONTAINERS else v for v in value]
    if kind is dict:
        return {k: _thaw(v) if type(v) in _CONTAINERS else v
                for k, v in value.items()}
    return value


_CONTAINERS = (tuple, list, dict)
_MISSING = MISSING    # a field a document does not have


class RetentionPolicy:
    """Short-term/long-term retention, as in the OSG network-monitoring
    platform the paper cites: raw documents are kept for
    ``short_term_s``; beyond that they are downsampled into
    ``long_term_bucket_s`` averages in a companion ``<index>-longterm``
    index (one document per bucket per series: flow, and ``metric`` /
    ``labels`` where the documents carry them), then pruned.  Windows
    are in the unit of ``time_field``: seconds for ``@timestamp``.
    """

    def __init__(self, short_term_s: float = 3600.0,
                 long_term_bucket_s: float = 60.0,
                 value_field: str = "value",
                 time_field: str = "@timestamp") -> None:
        if short_term_s <= 0 or long_term_bucket_s <= 0:
            raise ValueError("retention windows must be positive")
        self.short_term_s = short_term_s
        self.long_term_bucket_s = long_term_bucket_s
        self.value_field = value_field
        self.time_field = time_field

    def apply(self, store: "OpenSearchStore", index: str, now_s: float) -> int:
        """Downsample+prune documents older than the short-term window.
        Returns the number of raw documents pruned.  Reads only the
        segments that hold such documents, each field as stored; a
        segment that repeats the last one's bucket, flow and series
        (a sampler's tick after tick) adds its values to the same
        samples, position by position."""
        doomed: list = []
        buckets: Dict[tuple, list] = {}     # key -> [metric, labels, samples]
        label_keys: Dict[int, tuple] = {}   # id(stored label dict) -> its key
        # The last segments' layout: their bucket and flow, their series,
        # each position's samples list, and the value columns waiting to
        # be added to them (``None``: added as they come, since two
        # positions share a series).
        layout = None
        for docs, seg, at in store._older(index, now_s - self.short_term_s,
                                          self.time_field):
            doomed += seg.ids if at is None else map(seg.ids.__getitem__, at)
            times, values, flows, metrics, labels = (
                docs.values(seg, name, _MISSING, at, thaw=False)
                for name in (self.time_field, self.value_field, "flow_id",
                             "metric", "labels"))
            head = None
            if times.count(times[0]) == len(times) and flows.count(flows[0]) == len(flows):
                head = (self._bucket(times[0]), flows[0])
            # A segment has one schema: it has the value field in every
            # document or in none.
            valued = values[0] is not _MISSING
            if layout is not None and layout[0] == head and layout[1] == (metrics, labels):
                if valued and layout[3] is not None:
                    layout[3].append(values)
                elif valued:
                    for samples, value in zip(layout[2], values):
                        samples.append(value)
                continue
            _add_waiting(layout)
            positions = [self._group(buckets, label_keys, *doc)[2]
                         for doc in zip(times, flows, metrics, labels)]
            if valued:
                for samples, value in zip(positions, values):
                    samples.append(value)
            distinct = len(set(map(id, positions))) == len(positions)
            layout = None if head is None else (
                head, (metrics, labels), positions, [] if distinct else None)
        _add_waiting(layout)
        if not doomed:
            return 0
        # By bucket; series in order of first appearance within one.
        width = self.long_term_bucket_s
        for (bucket, flow_id, _, _), (metric, label_set, samples) in sorted(
                buckets.items(), key=lambda item: item[0][0]):
            if not samples:
                continue
            doc = {self.time_field: bucket * width, "flow_id": flow_id}
            for field, first in (("metric", metric), ("labels", label_set)):
                if first is not _MISSING:
                    doc[field] = _thaw(first)
            doc.update({self.value_field: sum(samples) / len(samples),
                        "samples": len(samples), "downsampled": True})
            store.index(f"{index}-longterm", doc)
        return store.delete(index, doomed)

    def _bucket(self, t: Any) -> int:
        return int((0.0 if t is _MISSING else t) // self.long_term_bucket_s)

    def _group(self, buckets: Dict[tuple, list], label_keys: Dict[int, tuple],
               t: Any, flow_id: Any, metric: Any, label_set: Any) -> list:
        """The group of a document's bucket and series (flow, metric,
        labels; a label dict's sorted items), made on its first
        document."""
        if type(label_set) is dict:
            label_key = label_keys.get(id(label_set))
            if label_key is None:
                label_key = label_keys[id(label_set)] = tuple(sorted(_thaw(label_set).items()))
        else:
            label_key = None if label_set is _MISSING else _thaw(label_set)
        key = (self._bucket(t), None if flow_id is _MISSING else _thaw(flow_id),
               None if metric is _MISSING else _thaw(metric), label_key)
        group = buckets.get(key)
        if group is None:
            group = buckets[key] = [metric, label_set, []]
        return group


def _add_waiting(layout: Optional[tuple]) -> None:
    """Add a retention layout's waiting value columns to its positions'
    samples, in document order (its positions are distinct)."""
    if layout is not None and layout[3]:
        for samples, column in zip(layout[2], zip(*layout[3])):
            samples += column


class _Segment:
    """One run as an index keeps it: the run, its block's tail and its
    documents' ``_id``s; ``floor`` caches the earliest value of one time
    field, once some read has asked for it."""

    __slots__ = ("run", "tail", "ids", "floor")

    def __init__(self, run: Run, tail: Row, ids: Sequence[int]) -> None:
        self.run, self.tail, self.ids, self.floor = run, tail, ids, None

    def find(self, name: str) -> Optional[Tuple[bool, Any]]:
        """Where ``name`` is: ``(True, column)`` where the documents vary
        in it, ``(False, value)`` where they share it (in the run or in
        the tail), ``None`` where they lack it."""
        run = self.run
        keys = run.keys
        if name in keys:
            p = keys.index(name)
            return p in run.cols, run.values[p]
        tail_keys, tail_values = self.tail
        if name in tail_keys:
            return False, tail_values[tail_keys.index(name)]
        return None

    def earliest(self, time_field: str) -> Any:
        """The least of the documents' ``time_field`` (0.0 where missing),
        or ``None`` where a value is not a plain number or is NaN: then
        no bound on it holds for every document."""
        floor = self.floor
        if floor is None or floor[0] != time_field:
            found = self.find(time_field)
            times = ((0.0,) if found is None else found[1] if found[0] else (found[1],))
            least = None
            if all(type(t) in (int, float) and t == t for t in times):
                least = min(times)
            floor = self.floor = (time_field, least)
        return floor[1]

    def last(self, name: str, default: Any) -> Any:
        """``name`` of the segment's last document."""
        found = self.find(name)
        if found is None:
            return default
        return found[1][-1] if found[0] else found[1]


class _Index:
    """One index's documents: its segments, in write order."""

    __slots__ = ("name", "segments", "count")

    def __init__(self, name: str) -> None:
        self.name, self.segments, self.count = name, [], 0

    def values(self, seg: _Segment, name: str, default: Any = None,
               at: Optional[Sequence[int]] = None, thaw: bool = True) -> List[Any]:
        """``document.get(name, default)`` of the segment's documents at
        ``at`` (default: all of them).  ``thaw=False`` returns the stored
        values themselves, for a read that hands none of them out and
        changes no list it gets (a whole column is the segment's own)."""
        count = seg.run.n if at is None else len(at)
        if name == "_id":
            ids = seg.ids
            return list(map(str, ids if at is None else map(ids.__getitem__, at)))
        if name == "_index":
            return [self.name] * count
        found = seg.find(name)
        if found is None:
            return [default] * count
        varies, value = found
        if not varies:
            if thaw and type(value) in _CONTAINERS:
                return [_thaw(value) for _ in range(count)]
            return [value] * count
        column = value if at is None else map(value.__getitem__, at)
        if thaw:
            return [_thaw(v) if type(v) in _CONTAINERS else v for v in column]
        return column if at is None else list(column)

    def keep(self, seg: _Segment, at: Sequence[int], name: str, default: Any,
             test: Callable[[Any], bool], thaw: bool = True) -> Sequence[int]:
        """The positions of ``at`` whose ``name`` passes ``test``; a value
        the segment's documents share is tested once."""
        if not at:
            return at
        if name != "_id" and (name == "_index" or not (seg.find(name) or (False,))[0]):
            return at if test(self.values(seg, name, default, at[:1], thaw)[0]) else []
        return [j for j, value in zip(at, self.values(seg, name, default, at, thaw))
                if test(value)]


class OpenSearchStore:
    def __init__(self) -> None:
        self._indices: Dict[str, _Index] = {}
        self._next_id = 1
        self._schemas: Dict[tuple, tuple] = {}   # interned key tuples
        self._picks: Dict[tuple, tuple] = {}     # fields -> (keys, tail keys, names, positions)
        self._faults = hooks.injector   # None without a chaos injector

    # -- document API ---------------------------------------------------------

    def bulk(self, indices: Sequence[str], block: Block) -> Dict[str, int]:
        """The write path, OpenSearch's bulk API: run ``i`` of ``block``
        goes to index ``indices[i]``, in order, as one segment beside one
        reference to the block's tail, its documents' ``_id``s assigned
        consecutively; returns how many documents each index took.  A
        run's keys should be interned (the run builders' constants are).

        Raises :class:`~repro.resilience.faults.ArchiveUnavailable`,
        writing nothing, while an injected archiver outage is active —
        modelling the OpenSearch node being down/restarting, the failure
        the shipper's retry/spool machinery exists to ride out."""
        if self._faults is not None and self._faults.archiver_down():
            raise ArchiveUnavailable("archive refused a bulk write")
        tail: Row = block.tail
        first, written = self._next_id, {}
        for index, run in zip(indices, block):
            docs = self._indices.get(index) or self._indices.setdefault(index, _Index(index))
            n = run.n
            docs.segments.append(_Segment(run, tail, range(first, first + n)))
            docs.count += n
            written[index] = written.get(index, 0) + n
            first += n
        self._next_id = first
        return written

    def index(self, index: str, document: dict) -> str:
        """Store one document; returns its assigned ``_id``."""
        run = document_run(document)
        run = Run(self._schemas.setdefault(run.keys, run.keys), run.values)
        doc_id = str(self._next_id)
        self.bulk((index,), Block((run,)))
        return doc_id

    def _document(self, docs: _Index, seg: _Segment, j: int,
                  fields: Optional[Sequence[str]] = None) -> dict:
        run = seg.run
        keys, cols = run.keys, run.cols
        values = tuple(v[j] if p in cols else v for p, v in enumerate(run.values)) \
            if cols else run.values
        tail_keys, tail_values = seg.tail
        if fields is None:
            pairs = chain(zip(keys, values), zip(tail_keys, tail_values))
        else:
            # The documents a query reads mostly share one schema and tail.
            pick = self._picks.get(fields)
            if pick is None or pick[0] is not keys or pick[1] is not tail_keys:
                both = keys + tail_keys
                names = tuple(k for k in fields if k in both)
                pick = self._picks[fields] = (keys, tail_keys, names,
                                              tuple(map(both.index, names)))
            pairs = zip(pick[2], map((values + tail_values).__getitem__, pick[3]))
        doc = {k: _thaw(v) if type(v) in _CONTAINERS else v for k, v in pairs}
        doc["_id"], doc["_index"] = str(seg.ids[j]), docs.name
        return doc

    def get(self, index: str, doc_id: str) -> Optional[dict]:
        return next(iter(self.search(index, term={"_id": doc_id})), None)

    def count(self, index: str) -> int:
        return self._indices[index].count if index in self._indices else 0

    @property
    def indices(self) -> List[str]:
        return sorted(self._indices)

    def delete(self, index: str, doc_ids: Iterable[str]) -> int:
        """Remove the documents with these ``_id``s; returns how many.
        ``_id``s rise in write order, so pruning the oldest documents
        dooms a prefix: whole segments are dropped and the first one
        left is sliced; any other set rebuilds each segment it cuts."""
        docs = self._indices.get(index)
        if docs is None:
            return 0
        gone = set(map(int, doc_ids))
        segments = docs.segments
        cut = whole = part = 0
        for seg in segments:
            if gone.issuperset(seg.ids):
                whole, cut = whole + 1, cut + seg.run.n
                continue
            part = sum(1 for _ in takewhile(gone.__contains__, seg.ids))
            cut += part
            break
        if cut == len(gone):
            del segments[:whole]
            if part:
                seg = segments[0]
                segments[0] = _Segment(seg.run.sliced(part), seg.tail, seg.ids[part:])
            docs.count -= cut
            return cut
        kept_segments = []
        for seg in segments:
            keep = [doc_id not in gone for doc_id in seg.ids]
            run = seg.run.select(keep)
            if run is seg.run:
                kept_segments.append(seg)
            elif run is not None:
                kept_segments.append(_Segment(run, seg.tail,
                                              array("q", compress(seg.ids, keep))))
        removed = docs.count - sum(seg.run.n for seg in kept_segments)
        docs.segments, docs.count = kept_segments, docs.count - removed
        return removed

    # -- query API -----------------------------------------------------------

    def search(
        self,
        index: str,
        term: Optional[Dict[str, Any]] = None,
        time_range: Optional[tuple] = None,
        time_field: str = "@timestamp",
        sort_field: Optional[str] = None,
        size: Optional[int] = None,
    ) -> List[dict]:
        """Filter by exact-match terms and an inclusive [lo, hi] range on
        ``time_field``; optionally sort and truncate.  Filters, sort and
        truncation run on the segments; only what survives becomes a
        dict."""
        docs = self._indices.get(index)
        if docs is None:
            return []
        hits: List[Tuple[_Segment, int]] = []
        sort_keys: List[Any] = []
        for seg in docs.segments:
            at: Sequence[int] = range(seg.run.n)
            for name, want in (term or {}).items():
                at = docs.keep(seg, at, name, None, lambda v, want=want: v == want)
            if time_range is not None:
                lo, hi = time_range
                at = docs.keep(seg, at, time_field, float("-inf"),
                               lambda t: lo <= t <= hi)
            hits.extend(zip([seg] * len(at), at))
            if sort_field is not None:
                sort_keys.extend(docs.values(seg, sort_field, 0, at))
        if sort_field is not None:
            hits = [hits[i] for i in sorted(range(len(hits)), key=sort_keys.__getitem__)]
        if size is not None:
            hits = hits[:size]
        return [self._document(docs, seg, j) for seg, j in hits]

    def columns(self, index: str, fields: Sequence[str], before: Any = None,
                time_field: str = "@timestamp", default: Any = None) -> List[list]:
        """``fields`` of the documents whose ``time_field`` (0.0 where
        missing) is before ``before`` (of every document, without one):
        one list per field, in document order, ``default`` where a
        document lacks the field — a column read, OpenSearch's
        ``docvalue_fields``, with no document built.  A segment whose
        earliest time is not before ``before`` is skipped unread."""
        out: List[list] = [[] for _ in fields]
        for docs, seg, at in self._older(index, before, time_field):
            for column, name in zip(out, fields):
                column += docs.values(seg, name, default, at)
        return out

    def _older(self, index: str, before: Any, time_field: str
               ) -> Iterator[Tuple[_Index, _Segment, Optional[Sequence[int]]]]:
        """Each segment holding documents whose ``time_field`` (0.0 where
        missing) is before ``before`` (every segment, without one), with
        their positions (``None``: all of the segment's)."""
        docs = self._indices.get(index)
        for seg in docs.segments if docs is not None else ():
            at: Optional[Sequence[int]] = None
            if before is not None:
                earliest = seg.earliest(time_field)
                if earliest is not None and not earliest < before:
                    continue
                if earliest is None or (seg.find(time_field) or (False,))[0]:
                    at = docs.keep(seg, range(seg.run.n), time_field, 0.0,
                                   lambda t: t < before)
                    if not at:
                        continue
                    if len(at) == seg.run.n:
                        at = None
            yield docs, seg, at

    def tail(self, index: str, since: Any, time_field: str = "@timestamp",
             fields: Optional[Sequence[str]] = None,
             terms: Optional[Dict[str, Any]] = None) -> List[dict]:
        """The documents whose ``time_field`` is at or after ``since``,
        oldest first, as :meth:`search` returns them but with only
        ``fields`` (and ``_id`` / ``_index``) when given — OpenSearch's
        ``_source`` filtering; ``terms`` keeps those whose field is one
        of the given values (its ``terms`` query).  Only for an index
        whose documents are in ``time_field`` order, as a time-ordered
        writer and prefix-only pruning keep it: the first one is found
        by bisection over the segments, then in one, so the read costs
        the tail, not the index."""
        docs = self._indices.get(index)
        if docs is None:
            return []
        segments = docs.segments
        start = bisect_left(segments, since,
                            key=lambda seg: seg.last(time_field, float("-inf")))
        out = []
        for k in range(start, len(segments)):
            seg = segments[k]
            at: Sequence[int] = range(seg.run.n)
            if k == start:
                times = docs.values(seg, time_field, float("-inf"))
                at = range(bisect_left(times, since), seg.run.n)
            for name, allowed in (terms or {}).items():
                at = docs.keep(seg, at, name, None, allowed.__contains__, thaw=False)
            out += [self._document(docs, seg, j, fields) for j in at]
        return out

    def aggregate(
        self,
        index: str,
        field: str,
        agg: str,
        term: Optional[Dict[str, Any]] = None,
    ) -> float:
        """min/max/avg/sum/count/p95 over a numeric field."""
        docs = self.search(index, term=term)
        values = np.array([d[field] for d in docs if field in d], dtype=float)
        if values.size == 0:
            return 0.0
        if agg == "min":
            return float(values.min())
        if agg == "max":
            return float(values.max())
        if agg == "avg":
            return float(values.mean())
        if agg == "sum":
            return float(values.sum())
        if agg == "count":
            return float(values.size)
        if agg == "p95":
            return float(np.percentile(values, 95))
        raise ValueError(f"unknown aggregation {agg!r}")

    def series(
        self,
        index: str,
        value_field: str = "value",
        time_field: str = "@timestamp",
        term: Optional[Dict[str, Any]] = None,
    ) -> List[tuple]:
        """(time, value) pairs sorted by time — dashboard-style fetch."""
        docs = self.search(index, term=term, sort_field=time_field)
        return [(d[time_field], d[value_field]) for d in docs if value_field in d]
