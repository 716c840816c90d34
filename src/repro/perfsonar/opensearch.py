"""An in-memory OpenSearch-like document store.

perfSONAR 5 archives measurements in OpenSearch; the paper's system
reuses that archive through Logstash's OpenSearch output plugin (Fig. 7).
This store models the slice of OpenSearch the archiver uses: named
indices of JSON documents, term/range queries, sort, and the handful of
metric aggregations dashboards ask for.

Documents are kept as rows, not dicts (docs/scaling.md, "Allocation
discipline"): per index three aligned columns — each document's value
tuple, as the write delivered it, its key tuple and its integer
``_id``; ``_index`` is the index a row sits in, and only the rows a
query selects become dicts again.  Writes arrive as
:data:`~repro.core.reports.Row` pairs, whose builders already stored
every top-level ``list`` as a tuple — what lets the collector stop
tracking the row; JSON has no tuples, so this is lossless for every
document this system ships.  On the way out every tuple becomes a fresh
list and every nested container a copy: a caller can never reach the
archive's own.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.reports import Block, document_row
from repro.telemetry import hooks
from repro.resilience.faults import ArchiveUnavailable


def _thaw(value: Any) -> Any:
    """A stored field as a caller may own it: tuples and lists become
    fresh lists, dicts fresh dicts, all the way down."""
    kind = type(value)
    if kind is tuple or kind is list:
        return [_thaw(v) for v in value]
    if kind is dict:
        return {k: _thaw(v) for k, v in value.items()}
    return value


_CONTAINERS = (tuple, list, dict)


class RetentionPolicy:
    """Short-term/long-term retention, as in the OSG network-monitoring
    platform the paper cites: raw documents are kept for
    ``short_term_s``; beyond that they are downsampled into
    ``long_term_bucket_s`` averages in a companion ``<index>-longterm``
    index (one document per bucket per flow), then pruned.
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
        cutoff = now_s - self.short_term_s
        # The store's range is inclusive and reads a missing field as
        # -inf: a superset, cut here to the strict window.
        old = [d for d in store.search(index, time_field=self.time_field,
                                       time_range=(float("-inf"), cutoff))
               if d.get(self.time_field, 0.0) < cutoff]
        if not old:
            return 0
        buckets: Dict[tuple, List[dict]] = {}
        for d in old:
            bucket = int(d.get(self.time_field, 0.0) // self.long_term_bucket_s)
            key = (bucket, d.get("flow_id"))
            buckets.setdefault(key, []).append(d)
        for (bucket, flow_id), members in sorted(buckets.items()):
            values = [m[self.value_field] for m in members if self.value_field in m]
            if not values:
                continue
            store.index(f"{index}-longterm", {
                self.time_field: bucket * self.long_term_bucket_s,
                "flow_id": flow_id,
                self.value_field: sum(values) / len(values),
                "samples": len(values),
                "downsampled": True,
            })
        return store.delete(index, [d["_id"] for d in old])


class _Index:
    """One index's documents as aligned columns: value tuples, key
    tuples, ``_id``s (row ``i`` is position ``i`` of each)."""

    __slots__ = ("name", "values", "keys", "ids")

    def __init__(self, name: str) -> None:
        self.name, self.values, self.keys, self.ids = name, [], [], array("q")

    def field(self, i: int, name: str, default: Any = None) -> Any:
        """``document.get(name, default)`` for row ``i``."""
        if name in ("_id", "_index"):
            return str(self.ids[i]) if name == "_id" else self.name
        keys = self.keys[i]
        return _thaw(self.values[i][keys.index(name)]) if name in keys else default


class OpenSearchStore:
    def __init__(self) -> None:
        self._indices: Dict[str, _Index] = {}
        self._next_id = 1
        self._schemas: Dict[tuple, tuple] = {}   # interned key tuples
        self._faults = hooks.injector   # None without a chaos injector

    # -- document API ---------------------------------------------------------

    def bulk(self, indices: Sequence[str], block: Block) -> int:
        """The write path, OpenSearch's bulk API: row ``i`` of ``block``
        goes to index ``indices[i]``, in order, ``_id``s assigned
        consecutively; returns the first one.  A row's value tuple is
        stored as it is, and its keys should be interned (the row
        builders' constants are).

        Raises :class:`~repro.resilience.faults.ArchiveUnavailable`,
        writing nothing, while an injected archiver outage is active —
        modelling the OpenSearch node being down/restarting, the failure
        the shipper's retry/spool machinery exists to ride out."""
        if self._faults is not None and self._faults.archiver_down():
            raise ArchiveUnavailable("archive refused a bulk write")
        first = self._next_id
        self._next_id = first + len(block)
        for index in dict.fromkeys(indices):
            docs = self._indices.get(index) or self._indices.setdefault(index, _Index(index))
            mine = [name == index for name in indices]
            docs.keys.extend(compress(map(itemgetter(0), block), mine))
            docs.values.extend(compress(map(itemgetter(1), block), mine))
            docs.ids.extend(compress(range(first, self._next_id), mine))
        return first

    def index(self, index: str, document: dict) -> str:
        """Store one document; returns its assigned ``_id``."""
        keys, values = document_row(document)
        keys = self._schemas.setdefault(keys, keys)
        return str(self.bulk((index,), ((keys, values),)))

    def _document(self, docs: _Index, i: int) -> dict:
        doc = {k: _thaw(v) if type(v) in _CONTAINERS else v
               for k, v in zip(docs.keys[i], docs.values[i])}
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
        """Remove the documents with these ``_id``s; returns how many."""
        docs, gone = self._indices.get(index, _Index(index)), set(doc_ids)
        kept = [str(doc_id) not in gone for doc_id in docs.ids]
        docs.values[:], docs.keys[:] = compress(docs.values, kept), compress(docs.keys, kept)
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
