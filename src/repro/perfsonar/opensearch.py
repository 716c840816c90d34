"""An in-memory OpenSearch-like document store.

perfSONAR 5 archives measurements in OpenSearch; the paper's system
reuses that archive through Logstash's OpenSearch output plugin (Fig. 7).
This store models the slice of OpenSearch the archiver uses: named
indices of JSON documents, term/range queries, sort, and the handful of
metric aggregations dashboards ask for.

Documents are kept as rows, not dicts (docs/scaling.md, "Allocation
discipline"): per index four aligned columns — each document's value
tuple, as the write delivered it, its key tuple, its block's tail (one
object that every row of the block points at: the fields its documents
share, read as their suffix) and its integer ``_id``; ``_index`` is the
index a row sits in, and only the rows a query selects become dicts
again.  Writes arrive as
:data:`~repro.core.reports.Row` pairs, whose builders already stored
every top-level ``list`` as a tuple — what lets the collector stop
tracking the row; JSON has no tuples, so this is lossless for every
document this system ships.  On the way out every tuple becomes a fresh
list and every nested container a copy: a caller can never reach the
archive's own.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, compress, repeat, takewhile
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.reports import Block, Row, document_row
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
_MISSING = object()   # a field a document does not have


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
        Returns the number of raw documents pruned."""
        ids, times, values, flows, metrics, labels = store.columns(
            index, ("_id", self.time_field, self.value_field, "flow_id",
                    "metric", "labels"),
            before=now_s - self.short_term_s, time_field=self.time_field,
            default=_MISSING)
        if not ids:
            return 0
        buckets: Dict[tuple, List[int]] = {}
        for i, (t, flow_id, metric, label_set) in enumerate(
                zip(times, flows, metrics, labels)):
            bucket = int((0.0 if t is _MISSING else t) // self.long_term_bucket_s)
            if type(label_set) is dict:
                label_set = tuple(sorted(label_set.items()))
            key = (bucket, None if flow_id is _MISSING else flow_id,
                   None if metric is _MISSING else metric,
                   None if label_set is _MISSING else label_set)
            buckets.setdefault(key, []).append(i)
        # By bucket; series in order of first appearance within one.
        for (bucket, flow_id, metric, _), members in sorted(
                buckets.items(), key=lambda item: item[0][0]):
            samples = [values[i] for i in members if values[i] is not _MISSING]
            if not samples:
                continue
            first = members[0]
            doc = {self.time_field: bucket * self.long_term_bucket_s,
                   "flow_id": flow_id}
            for field, column in (("metric", metrics), ("labels", labels)):
                if column[first] is not _MISSING:
                    doc[field] = column[first]
            doc.update({self.value_field: sum(samples) / len(samples),
                        "samples": len(samples), "downsampled": True})
            store.index(f"{index}-longterm", doc)
        return store.delete(index, ids)


class _Index:
    """One index's documents as aligned columns: value tuples, key
    tuples, tails, ``_id``s (row ``i`` is position ``i`` of each)."""

    __slots__ = ("name", "values", "keys", "tails", "ids")

    def __init__(self, name: str) -> None:
        self.name, self.values, self.keys, self.tails = name, [], [], []
        self.ids = array("q")

    def field(self, i: int, name: str, default: Any = None) -> Any:
        """``document.get(name, default)`` for row ``i``."""
        if name in ("_id", "_index"):
            return str(self.ids[i]) if name == "_id" else self.name
        for keys, values in ((self.keys[i], self.values[i]), self.tails[i]):
            if name in keys:
                return _thaw(values[keys.index(name)])
        return default

    def column(self, name: str, default: Any = None,
               rows: Optional[Iterable[int]] = None,
               thaw: bool = True) -> List[Any]:
        """:meth:`field` of each of ``rows`` (default: every row); a run
        of rows that share a key tuple and a tail finds ``name`` in them
        once.  ``thaw=False`` returns the stored values themselves, for
        a comparison that hands none of them out."""
        if rows is None:
            rows = range(len(self.values))
        if name in ("_id", "_index"):
            return [self.field(i, name) for i in rows]
        keys_of, values_of, tails_of = self.keys, self.values, self.tails
        out, schema, tail, at, shared = [], None, None, None, _MISSING
        for i in rows:
            keys = keys_of[i]
            if keys is not schema or tails_of[i] is not tail:
                schema, tail = keys, tails_of[i]
                at = keys.index(name) if name in keys else None
                tail_keys, tail_values = tail
                shared = (tail_values[tail_keys.index(name)] if name in tail_keys
                          else _MISSING)
            if at is not None:
                value = values_of[i][at]
            elif shared is not _MISSING:
                value = shared
            else:
                out.append(default)
                continue
            out.append(_thaw(value) if thaw and type(value) in _CONTAINERS else value)
        return out


class OpenSearchStore:
    def __init__(self) -> None:
        self._indices: Dict[str, _Index] = {}
        self._next_id = 1
        self._schemas: Dict[tuple, tuple] = {}   # interned key tuples
        self._picks: Dict[tuple, tuple] = {}     # fields -> (keys, names, positions)
        self._faults = hooks.injector   # None without a chaos injector

    # -- document API ---------------------------------------------------------

    def bulk(self, indices: Sequence[str], block: Block) -> Dict[str, int]:
        """The write path, OpenSearch's bulk API: row ``i`` of ``block``
        goes to index ``indices[i]``, in order, ``_id``s assigned
        consecutively; returns how many rows each index took.  A row's
        value tuple is stored as it is, beside one reference to the
        block's tail, and its keys should be interned (the row builders'
        constants are).

        Raises :class:`~repro.resilience.faults.ArchiveUnavailable`,
        writing nothing, while an injected archiver outage is active —
        modelling the OpenSearch node being down/restarting, the failure
        the shipper's retry/spool machinery exists to ride out."""
        if self._faults is not None and self._faults.archiver_down():
            raise ArchiveUnavailable("archive refused a bulk write")
        first = self._next_id
        self._next_id = first + len(block)
        tail: Row = block.tail
        written = {}
        for index in dict.fromkeys(indices):
            docs = self._indices.get(index) or self._indices.setdefault(index, _Index(index))
            mine = [name == index for name in indices]
            before = len(docs.values)
            docs.keys.extend(compress(map(itemgetter(0), block), mine))
            docs.values.extend(compress(map(itemgetter(1), block), mine))
            docs.ids.extend(compress(range(first, self._next_id), mine))
            written[index] = n = len(docs.values) - before
            docs.tails.extend(repeat(tail, n))
        return written

    def index(self, index: str, document: dict) -> str:
        """Store one document; returns its assigned ``_id``."""
        keys, values = document_row(document)
        keys = self._schemas.setdefault(keys, keys)
        doc_id = str(self._next_id)
        self.bulk((index,), Block(((keys, values),)))
        return doc_id

    def _document(self, docs: _Index, i: int,
                  fields: Optional[Sequence[str]] = None) -> dict:
        keys, values = docs.keys[i], docs.values[i]
        tail_keys, tail_values = docs.tails[i]
        if fields is None:
            pairs = chain(zip(keys, values), zip(tail_keys, tail_values))
        else:
            # The rows a query reads mostly share one key tuple and tail.
            pick = self._picks.get(fields)
            if pick is None or pick[0] is not keys or pick[1] is not tail_keys:
                both = keys + tail_keys
                names = tuple(k for k in fields if k in both)
                pick = self._picks[fields] = (keys, tail_keys, names,
                                              tuple(map(both.index, names)))
            pairs = zip(pick[2], map((values + tail_values).__getitem__, pick[3]))
        doc = {k: _thaw(v) if type(v) in _CONTAINERS else v for k, v in pairs}
        doc["_id"], doc["_index"] = str(docs.ids[i]), docs.name
        return doc

    def get(self, index: str, doc_id: str) -> Optional[dict]:
        return next(iter(self.search(index, term={"_id": doc_id})), None)

    def count(self, index: str) -> int:
        return len(self._indices[index].values) if index in self._indices else 0

    @property
    def indices(self) -> List[str]:
        return sorted(self._indices)

    def delete(self, index: str, doc_ids: Iterable[str]) -> int:
        """Remove the documents with these ``_id``s; returns how many.
        ``_id``s rise in write order, so pruning the oldest documents
        dooms a prefix: that is sliced off; any other set rebuilds each
        column once."""
        docs = self._indices.get(index)
        if docs is None:
            return 0
        gone = set(map(int, doc_ids))
        cut = sum(1 for _ in takewhile(gone.__contains__, docs.ids))
        if cut == len(gone):
            for column in (docs.values, docs.keys, docs.tails, docs.ids):
                del column[:cut]
            return cut
        kept = [doc_id not in gone for doc_id in docs.ids]
        for column in (docs.values, docs.keys, docs.tails):
            column[:] = compress(column, kept)
        docs.ids = array("q", compress(docs.ids, kept))
        return kept.count(False)

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
        truncation run on the rows; only what survives becomes a dict."""
        docs = self._indices.get(index)
        if docs is None:
            return []
        field = docs.field
        rows: Iterable[int] = range(len(docs.values))
        if term:
            rows = [i for i in rows
                    if all(field(i, k) == v for k, v in term.items())]
        if time_range is not None:
            lo, hi = time_range
            rows = [i for i in rows
                    if lo <= field(i, time_field, float("-inf")) <= hi]
        if sort_field is not None:
            rows = sorted(rows, key=lambda i: field(i, sort_field, 0))
        if size is not None:
            rows = rows[:size]
        return [self._document(docs, i) for i in rows]

    def columns(self, index: str, fields: Sequence[str], before: Any,
                time_field: str = "@timestamp", default: Any = None) -> List[list]:
        """``fields`` of the documents whose ``time_field`` (0.0 where
        missing) is before ``before``: one list per field, in document
        order, ``default`` where a document lacks the field — a column
        read, OpenSearch's ``docvalue_fields``, with no document built."""
        docs = self._indices.get(index)
        if docs is None:
            return [[] for _ in fields]
        rows = [i for i, t in enumerate(docs.column(time_field, 0.0)) if t < before]
        return [docs.column(name, default, rows) for name in fields]

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
        by bisection, so the read costs the tail, not the index."""
        docs = self._indices.get(index)
        if docs is None:
            return []
        end = len(docs.values)
        rows: Iterable[int] = range(bisect_left(
            range(end), since,
            key=lambda i: docs.field(i, time_field, float("-inf"))), end)
        for name, allowed in (terms or {}).items():
            rows = list(compress(rows, [
                v in allowed for v in docs.column(name, rows=rows, thaw=False)]))
        return [self._document(docs, i, fields) for i in rows]

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
