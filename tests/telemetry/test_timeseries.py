"""Flight-recorder ring buffers and the sim-time sampler.

Pins the ISSUE's acceptance claims: retention caps hold under long runs
(downsampling, not growth), delta/rate math survives counter resets, and
sampler ticks land exactly on sim-time interval multiples.
"""

import pytest

from repro import telemetry
from repro.netsim.engine import Simulator
from repro.telemetry.metrics import MetricsRegistry, TelemetryError
from repro.telemetry.timeseries import (
    TelemetryPusher,
    TelemetrySampler,
    TimeSeries,
    TimeSeriesStore,
)
from repro.telemetry.watch import render_watch, sparkline

MS = 1_000_000


# -- TimeSeries ring buffer ---------------------------------------------------


def test_retention_cap_bounds_memory():
    series = TimeSeries("s", retention=32)
    for i in range(100_000):
        series.append(i * MS, float(i))
    assert len(series) < 32
    assert series.total_appends == 100_000
    assert series.stride > 1


def test_decimation_keeps_full_run_coverage():
    series = TimeSeries("s", retention=16)
    for i in range(1, 1001):
        series.append(i * MS, float(i))
    points = series.points()
    # Oldest retained point is from early in the run, newest is recent:
    # decimation coarsens resolution instead of sliding the window.
    assert points[0].time_ns < 200 * MS
    assert points[-1].time_ns > 900 * MS
    # Strictly increasing timestamps survive repeated decimation.
    times = [p.time_ns for p in points]
    assert times == sorted(set(times))


def test_stride_doubles_on_each_compaction():
    series = TimeSeries("s", retention=8)
    for i in range(8):
        series.append(i * MS, float(i))
    assert series.stride == 2  # first compaction at the cap
    for i in range(8, 64):
        series.append(i * MS, float(i))
    assert series.stride >= 4
    assert len(series) < 8


def test_counter_delta_and_rate():
    series = TimeSeries("c", kind="counter", retention=64)
    series.append(0, 100.0)
    point = series.append(1_000_000_000, 160.0)  # +60 over 1 s
    assert point.delta == 60.0
    assert point.rate == pytest.approx(60.0)


def test_counter_reset_treated_as_increase_since_zero():
    series = TimeSeries("c", kind="counter", retention=64)
    series.append(0, 500.0)
    point = series.append(1_000_000_000, 40.0)  # went backwards → reset
    assert point.delta == 40.0
    assert point.rate == pytest.approx(40.0)


def test_gauge_delta_may_be_negative():
    series = TimeSeries("g", kind="gauge", retention=64)
    series.append(0, 10.0)
    point = series.append(500_000_000, 4.0)
    assert point.delta == -6.0
    assert point.rate == pytest.approx(-12.0)


def test_first_point_has_zero_delta_and_rate():
    series = TimeSeries("s", retention=64)
    point = series.append(123, 42.0)
    assert (point.delta, point.rate) == (0.0, 0.0)


def test_retention_floor_enforced():
    with pytest.raises(TelemetryError):
        TimeSeries("s", retention=2)
    with pytest.raises(TelemetryError):
        TimeSeriesStore(retention=1)


# -- TimeSeriesStore ----------------------------------------------------------


def _registry_with_values(counter=0.0, hist=()):
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "x").inc(counter)
    h = reg.histogram("repro_y_ns", "y", buckets=(10, 100))
    for v in hist:
        h.observe(v)
    g = reg.gauge("repro_z", "z", labels=("kind",))
    g.labels("a").set(1)
    g.labels("b").set(2)
    return reg


def test_store_splits_histograms_into_count_and_sum():
    store = TimeSeriesStore(retention=16)
    reg = _registry_with_values(counter=3, hist=(5, 50))
    store.record(0, reg.snapshot())
    assert store.get("repro_y_ns_count").last.value == 2
    assert store.get("repro_y_ns_sum").last.value == 55
    assert store.get("repro_y_ns_count").kind == "counter"


def test_store_keys_series_by_labels():
    store = TimeSeriesStore(retention=16)
    store.record(0, _registry_with_values().snapshot())
    assert store.get("repro_z", kind="a").last.value == 1
    assert store.get("repro_z", kind="b").last.value == 2
    assert store.get("repro_z", kind="missing") is None


def test_store_record_returns_retained_samples_for_pusher():
    store = TimeSeriesStore(retention=16)
    reg = _registry_with_values(counter=1)
    first = store.record(0, reg.snapshot())
    names = {r["metric"] for r in first}
    assert "repro_x_total" in names and "repro_z" in names
    record = next(r for r in first if r["metric"] == "repro_x_total")
    assert set(record) == {"metric", "labels", "kind", "time_ns",
                           "value", "delta", "rate"}


def test_store_top_ranks_by_recent_movement():
    store = TimeSeriesStore(retention=16)
    reg = MetricsRegistry()
    fast = reg.counter("fast_total")
    slow = reg.counter("slow_total")
    for t in range(5):
        fast.inc(1000)
        slow.inc(1)
        store.record(t * MS, reg.snapshot())
    top = store.top(1)
    assert top[0].name == "fast_total"


def test_store_total_points_bounded_by_retention_times_series():
    store = TimeSeriesStore(retention=8)
    reg = _registry_with_values(counter=1, hist=(5,))
    for t in range(10_000):
        store.record(t * MS, reg.snapshot())
    assert store.total_points() <= 8 * len(store)


# -- TelemetrySampler ---------------------------------------------------------


def test_sampler_ticks_align_to_interval_multiples():
    telemetry.enable()
    sim = Simulator()
    telemetry.counter("repro_a_total").inc()
    sampler = TelemetrySampler(sim, interval_ns=100 * MS, retention=600)
    sim.run_until(37 * MS)  # start mid-interval: alignment must still hold
    sampler.start()
    sim.run_until(1_000 * MS)
    series = sampler.store.get("repro_a_total")
    assert len(series) > 0
    assert all(p.time_ns % (100 * MS) == 0 for p in series.points())
    # 100 ms ticks from 100 ms through 1000 ms inclusive.
    assert sampler.samples_taken == 10


def test_sampler_stop_cancels_future_ticks():
    telemetry.enable()
    sim = Simulator()
    telemetry.counter("repro_a_total").inc()
    sampler = TelemetrySampler(sim, interval_ns=10 * MS)
    sampler.start()
    sim.run_until(50 * MS)
    taken = sampler.samples_taken
    sampler.stop()
    sim.run_until(500 * MS)
    assert sampler.samples_taken == taken


def test_sampler_observers_get_per_tick_batches():
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.counter("repro_a_total")
    sampler = TelemetrySampler(sim, interval_ns=10 * MS)
    batches = []
    sampler.add_observer(lambda t, recs: batches.append((t, recs)))
    sampler.start()
    sim.every(10 * MS, fam.inc)
    sim.run_until(100 * MS)
    assert len(batches) == sampler.samples_taken
    t_ns, records = batches[-1]
    assert t_ns == 100 * MS
    assert any(r["metric"] == "repro_a_total" for r in records)


def test_sampler_rejects_bad_interval():
    with pytest.raises(TelemetryError):
        TelemetrySampler(Simulator(), interval_ns=0)


def test_sampler_holds_retention_cap_during_long_run():
    """The ISSUE acceptance bound: 100 ms sampling over a long run keeps
    every ring buffer under the configured cap."""
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.counter("repro_a_total")
    cap = 64
    sampler = TelemetrySampler(sim, interval_ns=100 * MS, retention=cap)
    sampler.start()
    sim.every(50 * MS, fam.inc)
    sim.run_until(2_000_000 * MS)  # 2 000 s of sim time → 20 000 ticks
    assert sampler.samples_taken == 20_000
    for series in sampler.store.series():
        assert len(series) < cap


# -- watch rendering ----------------------------------------------------------


def test_sparkline_scales_to_extremes():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([5, 5, 5]) == "▁▁▁"
    assert sparkline([]) == ""


def test_render_watch_frame_contents():
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.counter("repro_busy_total")
    sampler = TelemetrySampler(sim, interval_ns=10 * MS)
    sampler.start()
    sim.every(10 * MS, lambda: fam.inc(100))
    sim.run_until(300 * MS)
    frame = render_watch(sampler.store, top=5, now_ns=sim.now,
                         samples=sampler.samples_taken)
    assert "flight recorder" in frame
    assert "repro_busy_total" in frame
    assert "alerts: none" in frame
    assert "t=0.30s" in frame


def test_render_watch_alert_line():
    from repro.core.reports import Alert

    store = TimeSeriesStore(retention=16)
    alerts = [Alert(time_ns=0, metric="throughput", flow_id=3,
                    value=9.9e8, threshold=9.5e8)]
    frame = render_watch(store, alerts=alerts)
    assert "1 active" in frame
    assert "throughput flow 3" in frame


# -- archive push -------------------------------------------------------------


def test_pusher_wraps_samples_as_repro_telemetry_events():
    blocks = []
    pusher = TelemetryPusher(blocks.append)
    pusher(200 * MS, [{"metric": "repro_x_total", "labels": {"k": "v"},
                       "kind": "counter", "time_ns": 200 * MS,
                       "value": 10.0, "delta": 2.0, "rate": 20.0}])
    assert pusher.events_pushed == 1
    (keys, values), = blocks[0]  # one block per sampler tick
    event = dict(zip(keys, values))
    assert event["type"] == "repro_telemetry"
    assert event["@timestamp"] == pytest.approx(0.2)
    assert event["metric"] == "repro_x_total"
    assert event["labels"] == {"k": "v"}
    assert (event["value"], event["delta"], event["rate_per_s"]) == (10.0, 2.0, 20.0)


def test_push_lands_in_archive_next_to_measurement_documents():
    """The acceptance path: sampler → pusher → Logstash pipeline →
    OpenSearch-like archive, with the telemetry index alongside the
    measurement indices."""
    from repro.core.reports import document_row
    from repro.perfsonar.archiver import Archiver

    telemetry.enable()
    sim = Simulator()
    fam = telemetry.counter("repro_work_total")
    archiver = Archiver()
    # A measurement document, as the control plane would ship it.
    archiver.sink([document_row({"type": "throughput", "flow_id": 1,
                                 "value": 1e8, "@timestamp": 0.05})])

    sampler = TelemetrySampler(sim, interval_ns=100 * MS, retention=32)
    pusher = TelemetryPusher(archiver.sink)
    sampler.add_observer(pusher)
    sampler.start()
    sim.every(10 * MS, fam.inc)
    sim.run_until(1_000 * MS)

    assert pusher.events_pushed > 0
    assert archiver.telemetry_count() == pusher.events_pushed
    series = archiver.telemetry_series("repro_work_total")
    assert len(series) == 10  # one per 100 ms tick over 1 s
    times = [t for t, _v in series]
    assert times == sorted(times)
    # Raw values are the sampled counter totals: the t=1000 ms sampler
    # tick was scheduled before that tick's inc event, so it sees the 99
    # increments from t=10..990 ms.
    assert series[-1][1] == pytest.approx(99.0)
    # Measurement data is still there, in its own index.
    assert archiver.count("throughput") == 1
    # Pushed documents picked up the standard Logstash metadata.
    doc = archiver.documents("repro_telemetry")[0]
    assert doc["host"] == "p4-controlplane"
    assert "p4-perfsonar" in doc["tags"]
