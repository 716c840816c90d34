"""Flight recorder: bounded time-series over the metrics registry.

PR 1 gave the stack point-in-time snapshots; this module makes the
instrument *continuous*, mirroring the paper's own model of register
extraction at fixed intervals shipped into an archive.  A
:class:`TelemetrySampler` scheduled in **sim time** snapshots the
registry every ``interval_ns`` and appends one point per scalar series
(histograms contribute ``<name>_count`` / ``<name>_sum``) into a
:class:`TimeSeriesStore` of ring buffers.

Each point carries the raw value plus the **delta** and **rate/s** since
the previous sample; counter resets (value moving backwards) are handled
Prometheus-style — the post-reset value is taken as the increase.

Memory stays O(retention) per series no matter how long the run is:
when a ring buffer reaches its retention cap it is *decimated* —
every other point is dropped and the append stride doubles, so a
million-sample run keeps full-run coverage at progressively coarser
resolution instead of growing without bound.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry, TelemetryError

__all__ = [
    "TimeSeriesPoint",
    "TimeSeries",
    "TimeSeriesStore",
    "TelemetrySampler",
    "TelemetryPusher",
    "DEFAULT_INTERVAL_NS",
    "DEFAULT_RETENTION",
]

DEFAULT_INTERVAL_NS = 100_000_000  # 100 ms of sim time
DEFAULT_RETENTION = 600            # points per series (one minute at 100 ms)

NS_PER_S = 1_000_000_000


class TimeSeriesPoint(NamedTuple):
    time_ns: int
    value: float
    delta: float
    rate: float  # delta per second of sim time


class TimeSeries:
    """One metric series as a decimating ring buffer.

    ``append`` is called once per sampler tick; only every ``stride``-th
    tick is retained once decimation has kicked in, but delta/rate are
    always computed against the immediately preceding tick, so a stored
    point is an instantaneous sample of the derivative, not an average
    over the (possibly widened) gap.
    """

    __slots__ = ("name", "labels", "kind", "retention", "stride",
                 "_points", "_skip", "_last_value", "_last_t", "total_appends")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 kind: str = "gauge", retention: int = DEFAULT_RETENTION) -> None:
        if retention < 4:
            raise TelemetryError("retention must be at least 4 points")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.retention = retention
        self.stride = 1
        self._points: List[TimeSeriesPoint] = []
        self._skip = 1
        self._last_value: Optional[float] = None
        self._last_t: Optional[int] = None
        self.total_appends = 0

    def append(self, t_ns: int, value: float) -> Optional[TimeSeriesPoint]:
        """Record one sample; returns the point if it was retained."""
        if self._last_t is None:
            delta = 0.0
            rate = 0.0
        else:
            if self.kind == "counter" and value < self._last_value:
                # Counter reset: the increase since the reset is the value.
                delta = value
            else:
                delta = value - self._last_value
            dt = t_ns - self._last_t
            rate = delta * NS_PER_S / dt if dt > 0 else 0.0
        self._last_value = value
        self._last_t = t_ns
        self.total_appends += 1
        self._skip -= 1
        if self._skip > 0:
            return None
        self._skip = self.stride
        point = TimeSeriesPoint(t_ns, float(value), delta, rate)
        self._points.append(point)
        if len(self._points) >= self.retention:
            # Decimate: uniform half-resolution over the whole window,
            # newest point always kept; future appends thin to match.
            self._points = self._points[1::2]
            self.stride *= 2
        return point

    # -- reads ------------------------------------------------------------

    def points(self) -> List[TimeSeriesPoint]:
        return list(self._points)

    def values(self) -> List[float]:
        return [p.value for p in self._points]

    def deltas(self) -> List[float]:
        return [p.delta for p in self._points]

    def rates(self) -> List[float]:
        return [p.rate for p in self._points]

    @property
    def last(self) -> Optional[TimeSeriesPoint]:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def dump(self, since: int = 0) -> dict:
        """Serialisable form; ``since`` keeps only points at or after
        that sim timestamp (incremental scrapes)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "kind": self.kind,
            "stride": self.stride,
            "retention": self.retention,
            "points": [list(p) for p in self._points
                       if p.time_ns >= since],
        }


class TimeSeriesStore:
    """All series of one sampler, keyed on (name, sorted label items)."""

    def __init__(self, retention: int = DEFAULT_RETENTION) -> None:
        if retention < 4:
            raise TelemetryError("retention must be at least 4 points")
        self.retention = retention
        self._series: Dict[Tuple[str, tuple], TimeSeries] = {}

    def _append(self, name: str, labels: tuple, kind: str,
                t_ns: int, value: float) -> Optional[TimeSeriesPoint]:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(
                name, labels, kind, retention=self.retention)
        return series.append(t_ns, value)

    def record(self, t_ns: int, snapshot: dict) -> List[dict]:
        """Fold one registry snapshot into the ring buffers.

        Returns the samples *retained this tick* as plain dicts (the
        pusher's wire format): ``{"metric", "labels", "kind", "time_ns",
        "value", "delta", "rate"}``.
        """
        retained: List[dict] = []
        for metric in snapshot.get("metrics", []):
            kind = metric["type"]
            name = metric["name"]
            for series in metric.get("series", []):
                labels = tuple(sorted(series.get("labels", {}).items()))
                if kind == "histogram":
                    parts = (("_count", float(series["count"])),
                             ("_sum", float(series["sum"])))
                    for suffix, value in parts:
                        point = self._append(name + suffix, labels, "counter",
                                             t_ns, value)
                        if point is not None:
                            retained.append(self._as_record(
                                name + suffix, labels, "counter", point))
                else:
                    point = self._append(name, labels, kind, t_ns,
                                         float(series["value"]))
                    if point is not None:
                        retained.append(self._as_record(name, labels, kind, point))
        return retained

    @staticmethod
    def _as_record(name: str, labels: tuple, kind: str,
                   point: TimeSeriesPoint) -> dict:
        return {
            "metric": name,
            "labels": dict(labels),
            "kind": kind,
            "time_ns": point.time_ns,
            "value": point.value,
            "delta": point.delta,
            "rate": point.rate,
        }

    # -- reads ------------------------------------------------------------

    def get(self, name: str, **labels: str) -> Optional[TimeSeries]:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._series.get(key)

    def series(self) -> Iterable[TimeSeries]:
        return self._series.values()

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for name, _labels in self._series:
            seen.setdefault(name, None)
        return list(seen)

    def top(self, n: int,
            key: Optional[Callable[[TimeSeries], float]] = None) -> List[TimeSeries]:
        """The ``n`` series moving fastest right now (default: |last delta|)."""
        if key is None:
            key = lambda s: abs(s.last.delta) if s.last else 0.0
        return sorted(self._series.values(), key=key, reverse=True)[:n]

    def total_points(self) -> int:
        """Retained points across every series — the memory bound the
        retention cap enforces (≤ retention × series count)."""
        return sum(len(s) for s in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    def dump(self, since: int = 0) -> dict:
        return {"retention": self.retention,
                "series": [s.dump(since=since) for s in sorted(
                    self._series.values(), key=lambda s: (s.name, s.labels))]}


class TelemetrySampler:
    """Periodic registry → ring-buffer snapshotting, in sim time.

    Ticks are **aligned**: the first sample lands on the next multiple of
    ``interval_ns``, so every retained point sits at t = k·interval —
    exactly the extraction-timestamp model (t_N, t_P, ...) the paper's
    control plane uses.  Observers registered with :meth:`add_observer`
    receive ``(t_ns, retained_records)`` each tick;
    :class:`TelemetryPusher` is one such observer.
    """

    def __init__(self, sim, registry: Optional[MetricsRegistry] = None,
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 retention: int = DEFAULT_RETENTION,
                 store: Optional[TimeSeriesStore] = None) -> None:
        if interval_ns <= 0:
            raise TelemetryError("sampling interval must be positive")
        self.sim = sim
        self.interval_ns = int(interval_ns)
        # None → resolve the process-global registry at each tick, so a
        # telemetry.reset() between construction and start() stays visible.
        self._registry = registry
        self.store = store or TimeSeriesStore(retention)
        self.samples_taken = 0
        self.running = False
        self._timer = None
        self._observers: List[Callable[[int, List[dict]], None]] = []
        self._samplers: List[Callable[[int], Iterable[tuple]]] = []

    def add_observer(self, fn: Callable[[int, List[dict]], None]) -> None:
        self._observers.append(fn)

    def add_sampler(self, fn: Callable[[int], Iterable[tuple]]) -> None:
        """Register an extra point source polled each tick: ``fn(t_ns)``
        yields ``(name, labels_dict, kind, value)`` tuples folded into
        the store alongside the registry snapshot (e.g. the control
        plane's histogram-percentile mirror)."""
        self._samplers.append(fn)

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._timer = self.sim.every(self.interval_ns, self._tick, align=True)

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self.running:
            return
        if self._registry is not None:
            registry = self._registry
        else:
            from repro import telemetry
            registry = telemetry.registry()
        now = self.sim.now
        retained = self.store.record(now, registry.snapshot())
        for sampler in self._samplers:
            for name, labels, kind, value in sampler(now):
                labels_t = tuple(sorted((k, str(v)) for k, v in labels.items()))
                point = self.store._append(name, labels_t, kind, now,
                                           float(value))
                if point is not None:
                    retained.append(self.store._as_record(
                        name, labels_t, kind, point))
        self.samples_taken += 1
        for fn in self._observers:
            fn(now, retained)


class TelemetryPusher:
    """Sampler observer → ``repro_telemetry`` events into a report sink
    (normally :meth:`~repro.perfsonar.archiver.Archiver.sink`): the
    flight recorder's way out while a run is in flight.

    Each retained sample becomes one event shaped like the control
    plane's Report_v1 documents (``type`` routes it to its own index in
    the OpenSearch output plugin), carrying raw value, delta and rate so
    dashboards can plot the instrument without a PromQL layer.  A
    sampler tick ships its events as one block of ``(keys, values)``
    rows, the report-sink contract::

        sampler.add_observer(TelemetryPusher(archiver.sink))
    """

    EVENT_TYPE = "repro_telemetry"
    KEYS = ("type", "@timestamp", "time_ns", "source", "metric", "labels",
            "kind", "value", "delta", "rate_per_s")

    def __init__(self, sink: Callable[[list], None]) -> None:
        self.sink = sink
        self.events_pushed = 0

    def __call__(self, t_ns: int, records: List[dict]) -> None:
        if not records:
            return
        self.sink([(self.KEYS, (
            self.EVENT_TYPE, t_ns / 1e9, t_ns, "repro-flight-recorder",
            rec["metric"], dict(rec["labels"]), rec["kind"], rec["value"],
            rec["delta"], rec["rate"])) for rec in records])
        self.events_pushed += len(records)
