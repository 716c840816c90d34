"""Flight recorder: the metrics registry sampled in sim time, archived once.

A :class:`TelemetrySampler` scheduled in **sim time** snapshots the
registry every ``interval_ns`` and ships one ``repro_telemetry`` document
per scalar series (histograms contribute ``<name>_count`` /
``<name>_sum``) into the archive, one block per tick.  The archive holds
the only copy: the ``watch`` view reads its tail, as the paper's Grafana
reads what Logstash put in OpenSearch (Fig. 7).

Each document carries the raw value plus the **delta** and **rate/s**
since the previous tick; counter resets (value moving backwards) are
handled Prometheus-style — the post-reset value is taken as the
increase.  The sampler's only state per series is the last
``(t, value)``.

Memory stays bounded however long the run: from the sampler tick, a
:class:`~repro.perfsonar.opensearch.RetentionPolicy` keeps at most
``retention`` raw documents per series and folds older ticks into
long-term bucket means in the ``-longterm`` companion index — the OSG
scheme the paper cites.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.reports import Block, Run
from repro.perfsonar.opensearch import RetentionPolicy
from repro.telemetry.metrics import MetricsRegistry, TelemetryError

__all__ = [
    "TelemetrySampler",
    "DEFAULT_INTERVAL_NS",
    "DEFAULT_RETENTION",
]

DEFAULT_INTERVAL_NS = 100_000_000  # 100 ms of sim time
DEFAULT_RETENTION = 600            # raw points per series (one minute at 100 ms)

NS_PER_S = 1_000_000_000
#: The positions of :attr:`TelemetrySampler.KEYS` that vary by series.
_COLUMNS = (4, 5, 6, 7, 8, 9)


class TelemetrySampler:
    """Periodic registry → archive snapshotting, in sim time.

    Ticks are **aligned**: the first sample lands on the next multiple of
    ``interval_ns``, so every document sits at t = k·interval — exactly
    the extraction-timestamp model (t_N, t_P, ...) the paper's control
    plane uses.  A tick ships its documents as one
    :class:`~repro.core.reports.Block` of one
    :class:`~repro.core.reports.Run` (a column per field its series vary
    in; type, time and source once) through the archiver's TCP input,
    beside the control plane's sink, so the archiver's record counters
    count the control plane's records only; observers registered with
    :meth:`add_observer` then receive ``(t_ns, block)``.

    Retention runs once per long-term bucket of ``retention // 2`` ticks
    and prunes whole buckets, ahead of time: what it keeps stays within
    ``retention`` raw ticks until the next pass.
    """

    EVENT_TYPE = "repro_telemetry"
    KEYS = ("type", "@timestamp", "time_ns", "source", "metric", "labels",
            "kind", "value", "delta", "rate_per_s")
    SOURCE = "repro-flight-recorder"

    def __init__(self, sim, archiver,
                 registry: Optional[MetricsRegistry] = None,
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 retention: int = DEFAULT_RETENTION) -> None:
        if interval_ns <= 0:
            raise TelemetryError("sampling interval must be positive")
        if retention < 4:
            raise TelemetryError("retention must be at least 4 points")
        self.sim = sim
        self.archiver = archiver
        self.interval_ns = int(interval_ns)
        self.retention = retention
        # None → resolve the process-global registry at each tick, so a
        # telemetry.reset() between construction and start() stays visible.
        self._registry = registry
        self._bucket_ticks = retention // 2
        # Windows in the unit of the documents' integer ``time_ns``, so
        # tick and bucket arithmetic is exact.
        self.policy = RetentionPolicy(
            short_term_s=retention * self.interval_ns,
            long_term_bucket_s=self._bucket_ticks * self.interval_ns,
            time_field="time_ns")
        #: (metric, sorted label items) → (t_ns, value) of its last tick,
        #: in the order the series were first seen.
        self.series: Dict[Tuple[str, tuple], Tuple[int, float]] = {}
        # Sorted label items -> the one label dict every document of
        # those labels shares (the archive never changes a value, and
        # its retention keys a series by the dict once).
        self._label_dicts: Dict[tuple, dict] = {}
        self.samples_taken = 0
        self.last_tick_ns: Optional[int] = None
        self.events_pushed = 0
        self.running = False
        self._timer = None
        self._observers: List[Callable[[int, list], None]] = []

    def add_observer(self, fn: Callable[[int, list], None]) -> None:
        self._observers.append(fn)

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

    # -- the tick ---------------------------------------------------------

    def _tick(self) -> None:
        if not self.running:
            return
        if self._registry is not None:
            registry = self._registry
        else:
            from repro import telemetry
            registry = telemetry.registry()
        now = self.sim.now
        block = self._block(now, registry.snapshot())
        if block:
            self.archiver.tcp_input.ingest(block)
            self.events_pushed += block.size
        self.samples_taken += 1
        self.last_tick_ns = now
        tick = now // self.interval_ns
        if tick % self._bucket_ticks == 0:
            self._prune(tick)
        for fn in self._observers:
            fn(now, block)

    def _block(self, t_ns: int, snapshot: dict) -> Block:
        """One document per scalar series of ``snapshot``, each with its
        delta and rate against the series' previous tick, as one run."""
        columns: Tuple[list, ...] = ([], [], [], [], [], [])
        metrics, label_sets, kinds, values, deltas, rates = columns
        last, label_dicts = self.series, self._label_dicts
        for metric in snapshot.get("metrics", []):
            kind = metric["type"]
            name = metric["name"]
            for series in metric.get("series", []):
                labels = tuple(sorted(series.get("labels", {}).items()))
                if kind == "histogram":
                    points = ((name + "_count", "counter", series["count"]),
                              (name + "_sum", "counter", series["sum"]))
                else:
                    points = ((name, kind, series["value"]),)
                for metric_name, point_kind, value in points:
                    value = float(value)
                    key = (metric_name, labels)
                    prev = last.get(key)
                    if prev is None:
                        delta = rate = 0.0
                    else:
                        prev_t, prev_value = prev
                        if point_kind == "counter" and value < prev_value:
                            # Counter reset: the increase since the reset is the value.
                            delta = value
                        else:
                            delta = value - prev_value
                        dt = t_ns - prev_t
                        rate = delta * NS_PER_S / dt if dt > 0 else 0.0
                    last[key] = (t_ns, value)
                    metrics.append(metric_name)
                    label_dict = label_dicts.get(labels)
                    if label_dict is None:
                        label_dict = label_dicts[labels] = dict(labels)
                    label_sets.append(label_dict)
                    kinds.append(point_kind)
                    values.append(value)
                    deltas.append(delta)
                    rates.append(rate)
        if not metrics:
            return Block()
        return Block((Run(self.KEYS, (self.EVENT_TYPE, t_ns / 1e9, t_ns, self.SOURCE, *columns),
                          _COLUMNS, len(metrics)),))

    def _prune(self, tick: int) -> None:
        """Downsample and drop every tick before the first bucket
        boundary at or after ``tick + bucket - retention``: until the
        next pass, one bucket on, no series holds more than
        ``retention`` raw documents, and no bucket is split between
        passes."""
        bucket = self._bucket_ticks
        first_kept = -((self.retention - bucket - tick) // bucket) * bucket
        if first_kept > 0:
            self.archiver.apply_retention(
                self.policy, (first_kept + self.retention) * self.interval_ns,
                kind=self.EVENT_TYPE)

    # -- reads (the archive) ----------------------------------------------

    def tail(self, ticks: int, **query) -> List[dict]:
        """The archived documents of the last ``ticks`` ticks, oldest
        first (``query``: the archive's ``fields`` and ``terms``)."""
        if self.last_tick_ns is None:
            return []
        return self.archiver.telemetry_tail(
            self.last_tick_ns - (ticks - 1) * self.interval_ns, **query)
