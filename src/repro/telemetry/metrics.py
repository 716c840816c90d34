"""Metric primitives and the registry.

Three instrument types, mirroring the Prometheus data model the paper's
own report pipeline (Logstash → OpenSearch → Grafana) consumes:

- :class:`Counter` — monotonically increasing float/int total;
- :class:`Gauge` — a value that can go up and down (or be *pulled* from a
  component at snapshot time via a collector callback);
- :class:`Histogram` — fixed **log-scale** bucket boundaries chosen at
  construction, so ``observe()`` is one ``bisect`` + two adds and never
  allocates.  The default bounds are :data:`LATENCY_BUCKETS_NS`
  (powers of four from 64 ns to ~4.4 s); the product's histograms
  observe sizes on :data:`SIZE_BUCKETS`.

Instruments are grouped into labeled *families* (``name`` + fixed label
names → one child per label-value combination).  Child lookup is a dict
hit on a tuple; cardinality is capped so a runaway label (e.g. a flow ID
used as a label value) fails loudly instead of eating memory.

The registry itself is dumb on purpose: components own their counts.
A component registers :class:`TallyReads` (a collector, through
:meth:`MetricsRegistry.add_collector`) once, at construction, and a
snapshot reads the tallies it already keeps: a gauge takes the tally, a
counter advances by the tally's delta since the last collect.  Only
values that exist at one sim-time instant (a queue depth at a drain, a
record's field count) are observed where they happen; wall time is the
profiler's (:mod:`repro.telemetry.profiling`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "TallyReads",
    "TelemetryError",
    "LATENCY_BUCKETS_NS",
    "SIZE_BUCKETS",
]

# Powers of 4: 64 ns, 256 ns, 1 µs, ... ~4.4 s.  13 buckets + overflow.
LATENCY_BUCKETS_NS: Tuple[float, ...] = tuple(float(4 ** i) for i in range(3, 17))

# Powers of 2 for counts/sizes: 1, 2, 4, ... 65536.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(2 ** i) for i in range(0, 17))

DEFAULT_MAX_SERIES = 256


class TelemetryError(RuntimeError):
    """Misuse of the metrics API (type clash, label clash, cardinality)."""


class Counter:
    """Monotonic total.  ``inc()`` only; negative increments are errors."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def dump(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def merge(self, other: "Gauge") -> None:
        self.value = other.value

    def dump(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket histogram with log-scale default boundaries.

    ``counts[i]`` holds observations with ``value <= bounds[i]``; the
    final slot is the +Inf overflow.  Bounds are upper edges, matching
    Prometheus ``le`` semantics.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS_NS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise TelemetryError("bucket bounds must be sorted and unique")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_n(self, value: float, n: int) -> None:
        """``n`` observations of ``value`` in one call (a per-batch
        observer attributing a batch mean to each of its items)."""
        if n <= 0:
            return
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise TelemetryError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def dump(self) -> dict:
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


_FACTORIES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """``name`` + fixed label names → one child instrument per label set.

    A label-less family has exactly one child (the empty label tuple) and
    proxies ``inc``/``set``/``observe`` straight to it, so
    ``registry.counter("x").inc()`` needs no ``.labels()`` hop.
    """

    __slots__ = ("name", "kind", "help", "label_names", "max_series",
                 "_children", "_buckets")

    def __init__(self, name: str, kind: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None,
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self.max_series = max_series
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[tuple, object] = {}
        if not self.label_names:
            self._children[()] = self._make()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or LATENCY_BUCKETS_NS)
        return _FACTORIES[self.kind]()

    def labels(self, *values: str, **kv: str):
        """Child for one label-value combination (created on first use)."""
        if kv:
            if values:
                raise TelemetryError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kv[n]) for n in self.label_names)
            except KeyError as missing:
                raise TelemetryError(
                    f"{self.name}: missing label {missing}; expects {self.label_names}"
                ) from None
            if len(kv) != len(self.label_names):
                extra = set(kv) - set(self.label_names)
                raise TelemetryError(f"{self.name}: unknown labels {sorted(extra)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise TelemetryError(
                f"{self.name}: got {len(values)} label values, "
                f"expects {len(self.label_names)} {self.label_names}"
            )
        child = self._children.get(values)
        if child is None:
            if len(self._children) >= self.max_series:
                raise TelemetryError(
                    f"{self.name}: label cardinality cap ({self.max_series}) hit; "
                    "a per-flow or per-packet value is probably being used as a label"
                )
            child = self._children[values] = self._make()
        return child

    # -- label-less convenience proxies -----------------------------------

    def _solo(self):
        if self.label_names:
            raise TelemetryError(f"{self.name} has labels {self.label_names}; use .labels()")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_n(self, value: float, n: int) -> None:
        self._solo().observe_n(value, n)

    @property
    def value(self):
        return self._solo().value

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()

    def series(self) -> Iterable[Tuple[tuple, object]]:
        return self._children.items()

    def dump(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [
                {"labels": dict(zip(self.label_names, values)), **child.dump()}
                for values, child in sorted(self._children.items())
            ],
        }


class TallyReads:
    """One component's families, read off the tallies it keeps.

    Each read is ``(name, help, labels, read)``: ``read()`` returns
    ``{label values: tally}`` (a lone label value may stand alone), or
    one number, whose label values ``labels`` gives as ``{name: value}``.
    A collector: at each collect a gauge takes its tally, and a counter
    advances by its tally's delta since the last collect, so instances
    feeding one registry sum.  A read of one number has its series from
    registration (as a label-less family does); a read of a mapping
    creates each series on its first positive delta.  ``owner`` names
    the component for :meth:`MetricsRegistry.rebase`.
    """

    __slots__ = ("owner", "_reads", "_last")

    def __init__(self, registry: "MetricsRegistry", owner: object,
                 counters: Sequence[tuple] = (), gauges: Sequence[tuple] = ()) -> None:
        self.owner = owner
        self._reads = []
        for kind, reads in (("counter", counters), ("gauge", gauges)):
            for name, help, labels, read in reads:
                fam = registry._family(name, kind, help, tuple(labels))
                one = tuple(labels.values()) if isinstance(labels, Mapping) else ()
                if len(one) == len(fam.label_names):  # a read of one number
                    fam.labels(*one)
                self._reads.append((fam, one, read))
        self._last: Dict[tuple, float] = {}
        self.rebase()

    def _values(self, kinds=("counter", "gauge")):
        for fam, one, read in self._reads:
            if fam.kind not in kinds:
                continue
            values = read()
            if not isinstance(values, Mapping):
                values = {one: values}
            for key, value in values.items():
                yield fam, key if isinstance(key, tuple) else (key,), value

    def rebase(self) -> None:
        """Take the counters' tallies as counted already (a component
        restored from a checkpoint brings its dead incarnation's)."""
        for fam, key, value in self._values(("counter",)):
            self._last[fam.name, key] = value

    def __call__(self, _registry: "MetricsRegistry") -> None:
        for fam, key, value in self._values():
            if fam.kind == "gauge":
                fam.labels(*key).set(value)
                continue
            last = self._last.get((fam.name, key), 0)
            if value > last:
                fam.labels(*key).inc(value - last)
            self._last[fam.name, key] = value


class MetricsRegistry:
    """Named families + pull collectors.  ``snapshot()`` is the only
    read path: it runs every collector, then dumps all families to a
    plain-JSON-serialisable dict the exporters share."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument accessors (idempotent; clash on type/labels) -----------

    def _family(self, name: str, kind: str, help: str, labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise TelemetryError(
                    f"{name} already registered as {fam.kind}, not {kind}")
            if fam.label_names != tuple(labels):
                raise TelemetryError(
                    f"{name} already registered with labels {fam.label_names}")
            return fam
        fam = MetricFamily(name, kind, help=help, labels=labels, buckets=buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    # -- pull-style collection --------------------------------------------

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """``fn(registry)`` runs at every collect, in registration order
        — the place to read a component's own tallies."""
        self._collectors.append(fn)

    def counter_of(self, name: str, help: str, hist: MetricFamily) -> None:
        """A counter family that is ``hist``'s observation count, series
        by series.  Registering it again changes nothing: one mirror per
        registry, however many components feed ``hist``."""
        if name not in self._families:
            self.add_collector(TallyReads(self, hist, counters=[(
                name, help, hist.label_names,
                lambda: {labels: child.count for labels, child in hist.series()})]))

    def rebase(self, *owners: object) -> None:
        """Every :class:`TallyReads` of ``owners`` takes its counters'
        tallies as counted already (call it after a restore)."""
        for fn in self._collectors:
            if isinstance(fn, TallyReads) and any(fn.owner is o for o in owners):
                fn.rebase()

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # -- read/maintenance ---------------------------------------------------

    def snapshot(self) -> dict:
        """Collect, then dump every family."""
        self.collect()
        return {"metrics": [f.dump() for f in
                            sorted(self._families.values(), key=lambda f: f.name)]}

    def reset(self) -> None:
        """Zero every instrument; families, labels and collectors stay."""
        for fam in self._families.values():
            fam.reset()

    def __len__(self) -> int:
        return len(self._families)
