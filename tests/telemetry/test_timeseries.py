"""The flight recorder: sim-time sampler, archived once.

Pins what a user sees: ticks land on sim-time interval multiples, each
tick's documents carry delta/rate that survive counter resets, the
archive holds at most ``retention`` raw documents per series (older
ticks folded into long-term buckets), and the watch view reads its
frames from the archive.
"""

import pytest

from repro import telemetry
from repro.core.reports import Block, document_run
from repro.netsim.engine import Simulator
from repro.perfsonar.archiver import Archiver
from repro.telemetry.metrics import MetricsRegistry, TelemetryError
from repro.telemetry.timeseries import TelemetrySampler
from repro.telemetry.watch import render_watch, sparkline

MS = 1_000_000
S = 1_000_000_000


def _run(registry, script, ticks, interval_ns=S, retention=64):
    """Sample ``registry`` for ``ticks`` ticks; ``script`` is a list of
    ``(t_ns, fn)`` registry changes.  Returns the sampler."""
    sim = Simulator()
    for t_ns, fn in script:
        sim.at(t_ns, fn)
    sampler = TelemetrySampler(sim, Archiver(), registry=registry,
                               interval_ns=interval_ns, retention=retention)
    sampler.start()
    sim.run_until(ticks * interval_ns)
    return sampler


def _docs(sampler, metric, **labels):
    docs = sampler.archiver.documents("repro_telemetry", metric=metric)
    return [d for d in docs if d["labels"] == labels]


# -- delta and rate -----------------------------------------------------------


def test_counter_delta_and_rate():
    reg = MetricsRegistry()
    c = reg.counter("c_total")
    sampler = _run(reg, [(0, lambda: c.inc(100)), (S + 1, lambda: c.inc(60))],
                   ticks=2)
    point = _docs(sampler, "c_total")[-1]   # +60 over 1 s
    assert point["delta"] == 60.0
    assert point["rate_per_s"] == pytest.approx(60.0)


def test_counter_reset_treated_as_increase_since_zero():
    reg = MetricsRegistry()
    c = reg.counter("c_total")
    sampler = _run(reg, [(0, lambda: c.inc(500)), (S + 1, c.reset),
                         (S + 2, lambda: c.inc(40))], ticks=2)
    point = _docs(sampler, "c_total")[-1]   # went backwards → reset
    assert point["delta"] == 40.0
    assert point["rate_per_s"] == pytest.approx(40.0)


def test_gauge_delta_may_be_negative():
    reg = MetricsRegistry()
    g = reg.gauge("g")
    sampler = _run(reg, [(0, lambda: g.set(10)),
                         (500 * MS + 1, lambda: g.set(4))],
                   ticks=2, interval_ns=500 * MS)
    point = _docs(sampler, "g")[-1]
    assert point["delta"] == -6.0
    assert point["rate_per_s"] == pytest.approx(-12.0)


def test_first_point_has_zero_delta_and_rate():
    reg = MetricsRegistry()
    reg.gauge("g").set(42)
    point, = _docs(_run(reg, [], ticks=1), "g")
    assert (point["value"], point["delta"], point["rate_per_s"]) == (42.0, 0.0, 0.0)


def test_retention_floor_enforced():
    for retention in (1, 2, 3):
        with pytest.raises(TelemetryError):
            TelemetrySampler(Simulator(), Archiver(), retention=retention)


# -- what a tick archives -----------------------------------------------------


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
    sampler = _run(_registry_with_values(counter=3, hist=(5, 50)), [], ticks=1)
    count, = _docs(sampler, "repro_y_ns_count")
    total, = _docs(sampler, "repro_y_ns_sum")
    assert (count["value"], total["value"]) == (2, 55)
    assert count["kind"] == total["kind"] == "counter"


def test_store_keys_series_by_labels():
    sampler = _run(_registry_with_values(), [], ticks=1)
    assert [d["value"] for d in _docs(sampler, "repro_z", kind="a")] == [1]
    assert [d["value"] for d in _docs(sampler, "repro_z", kind="b")] == [2]
    assert _docs(sampler, "repro_z", kind="missing") == []
    assert ("repro_z", (("kind", "a"),)) in sampler.series


def test_store_record_returns_retained_samples_for_pusher():
    """The wire format: one block of one run per tick, each of its
    documents a ``repro_telemetry`` event, handed to the archive's sink
    and then to the observers."""
    sim = Simulator()
    reg = _registry_with_values(counter=1)
    sampler = TelemetrySampler(sim, Archiver(), registry=reg,
                               interval_ns=200 * MS)
    blocks = []
    sampler.add_observer(lambda t, block: blocks.append((t, block)))
    sampler.start()
    sim.run_until(200 * MS)
    (t_ns, block), = blocks
    assert t_ns == 200 * MS
    assert sampler.events_pushed == block.size == 5 and len(block) == 1
    event = block.documents()[0]
    assert set(event) == {"type", "@timestamp", "time_ns", "source", "metric",
                          "labels", "kind", "value", "delta", "rate_per_s"}
    assert event["type"] == "repro_telemetry"
    assert event["@timestamp"] == pytest.approx(0.2)
    assert event["time_ns"] == 200 * MS
    assert (event["metric"], event["labels"], event["kind"]) == (
        "repro_x_total", {}, "counter")
    assert (event["value"], event["delta"], event["rate_per_s"]) == (1.0, 0.0, 0.0)
    labelled = [doc for doc in block.documents() if doc["metric"] == "repro_z"]
    assert [e["labels"] for e in labelled] == [{"kind": "a"}, {"kind": "b"}]


def test_store_top_ranks_by_recent_movement():
    reg = MetricsRegistry()
    fast = reg.counter("fast_total")
    slow = reg.counter("slow_total")
    script = [(t * MS + 1, fn) for t in range(5)
              for fn in (lambda: fast.inc(1000), lambda: slow.inc(1))]
    sampler = _run(reg, script, ticks=5, interval_ns=MS)
    frame = render_watch(sampler, top=1)
    assert "fast_total" in frame and "slow_total" not in frame


def test_store_total_points_bounded_by_retention_times_series():
    """After every tick the archive holds at most ``retention`` raw
    documents per series; what retention pruned is in the long-term
    buckets, every sample of it."""
    retention = 8
    reg = _registry_with_values(counter=1, hist=(5,))
    sim = Simulator()
    archiver = Archiver()
    sampler = TelemetrySampler(sim, archiver, registry=reg, interval_ns=MS,
                               retention=retention)
    raw = []
    sampler.add_observer(lambda t, block: raw.append(
        (archiver.telemetry_count(), len(sampler.series))))
    sampler.start()
    sim.run_until(1_000 * MS)
    assert len(raw) == 1_000
    assert all(points <= retention * series for points, series in raw)
    assert max(points for points, _ in raw) == retention * len(sampler.series)
    longterm = archiver.store.search("pscheduler-repro_telemetry-longterm")
    assert archiver.telemetry_count(longterm=True) == len(longterm) > 0
    folded = sum(doc["samples"] for doc in longterm)
    assert folded + archiver.telemetry_count() == sampler.events_pushed
    # One long-term document per bucket and series, metric and labels kept.
    keys = [(d["time_ns"], d["metric"], tuple(d["labels"].items())) for d in longterm]
    assert len(keys) == len(set(keys))
    assert {(d["metric"], tuple(d["labels"].items())) for d in longterm} == set(sampler.series)


# -- TelemetrySampler ---------------------------------------------------------


def test_sampler_ticks_align_to_interval_multiples():
    telemetry.enable()
    sim = Simulator()
    telemetry.registry().counter("repro_a_total").inc()
    sampler = TelemetrySampler(sim, Archiver(), interval_ns=100 * MS,
                               retention=600)
    sim.run_until(37 * MS)  # start mid-interval: alignment must still hold
    sampler.start()
    sim.run_until(1_000 * MS)
    docs = _docs(sampler, "repro_a_total")
    assert len(docs) > 0
    assert all(d["time_ns"] % (100 * MS) == 0 for d in docs)
    # 100 ms ticks from 100 ms through 1000 ms inclusive.
    assert sampler.samples_taken == 10


def test_sampler_stop_cancels_future_ticks():
    telemetry.enable()
    sim = Simulator()
    telemetry.registry().counter("repro_a_total").inc()
    sampler = TelemetrySampler(sim, Archiver(), interval_ns=10 * MS)
    sampler.start()
    sim.run_until(50 * MS)
    taken = sampler.samples_taken
    sampler.stop()
    sim.run_until(500 * MS)
    assert sampler.samples_taken == taken


def test_sampler_observers_get_per_tick_batches():
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.registry().counter("repro_a_total")
    sampler = TelemetrySampler(sim, Archiver(), interval_ns=10 * MS)
    batches = []
    sampler.add_observer(lambda t, block: batches.append((t, block)))
    sampler.start()
    sim.every(10 * MS, fam.inc)
    sim.run_until(100 * MS)
    assert len(batches) == sampler.samples_taken
    t_ns, block = batches[-1]
    assert t_ns == 100 * MS
    assert any(doc["metric"] == "repro_a_total" for doc in block.documents())


def test_sampler_rejects_bad_interval():
    with pytest.raises(TelemetryError):
        TelemetrySampler(Simulator(), Archiver(), interval_ns=0)


def test_sampler_holds_retention_cap_during_long_run():
    """100 ms sampling over a long run keeps every series within the
    configured number of raw documents."""
    sim = Simulator()
    reg = MetricsRegistry()
    fam = reg.counter("repro_a_total")
    cap = 64
    sampler = TelemetrySampler(sim, Archiver(), registry=reg,
                               interval_ns=100 * MS, retention=cap)
    sampler.start()
    sim.every(50 * MS, fam.inc)
    sim.run_until(2_000_000 * MS)  # 2 000 s of sim time → 20 000 ticks
    assert sampler.samples_taken == 20_000
    docs = _docs(sampler, "repro_a_total")
    assert cap // 2 <= len(docs) <= cap
    assert docs[-1]["time_ns"] == 2_000_000 * MS
    assert docs[-1]["value"] == 39_999.0


# -- watch rendering ----------------------------------------------------------


def test_sparkline_scales_to_extremes():
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([5, 5, 5]) == "▁▁▁"
    assert sparkline([]) == ""


def test_render_watch_frame_contents():
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.registry().counter("repro_busy_total")
    sampler = TelemetrySampler(sim, Archiver(), interval_ns=10 * MS)
    sampler.start()
    sim.every(10 * MS, lambda: fam.inc(100))
    sim.run_until(300 * MS)
    frame = render_watch(sampler, top=5, now_ns=sim.now,
                         samples=sampler.samples_taken)
    assert "flight recorder" in frame
    assert "repro_busy_total" in frame
    assert "alerts: none" in frame
    assert "t=0.30s" in frame


def test_render_watch_alert_line():
    from repro.core.reports import Alert

    sampler = TelemetrySampler(Simulator(), Archiver(), retention=16)
    alerts = [Alert(time_ns=0, metric="throughput", flow_id=3,
                    value=9.9e8, threshold=9.5e8)]
    frame = render_watch(sampler, alerts=alerts)
    assert "(no samples yet)" in frame
    assert "1 active" in frame
    assert "throughput flow 3" in frame


def test_render_watch_sparkline_reads_the_archived_tail():
    reg = MetricsRegistry()
    c = reg.counter("c_total")
    script = [(k * MS + 1, lambda k=k: c.inc(k)) for k in range(40)]
    sampler = _run(reg, script, ticks=40, interval_ns=MS, retention=16)
    frame = render_watch(sampler, width=8)
    row = next(line for line in frame.splitlines() if line.startswith("c_total"))
    # Deltas 32..39 over the last 8 ticks: a steady climb.
    assert row.endswith(sparkline([float(k) for k in range(32, 40)], 8))
    assert f"points={sampler.archiver.telemetry_count()} (cap 16/series)" in frame


# -- archive push -------------------------------------------------------------


def test_pusher_wraps_samples_as_repro_telemetry_events():
    sampler = _run(_registry_with_values(counter=10), [], ticks=2,
                   interval_ns=100 * MS)
    doc = _docs(sampler, "repro_x_total")[-1]
    assert doc["type"] == "repro_telemetry"
    assert doc["@timestamp"] == pytest.approx(0.2)
    assert doc["source"] == "repro-flight-recorder"
    assert doc["labels"] == {}
    assert (doc["value"], doc["delta"], doc["rate_per_s"]) == (10.0, 0.0, 0.0)
    labelled = _docs(sampler, "repro_z", kind="b")[-1]
    assert (labelled["kind"], labelled["value"]) == ("gauge", 2.0)


def test_push_lands_in_archive_next_to_measurement_documents():
    """The acceptance path: sampler → Logstash pipeline → OpenSearch-like
    archive, with the telemetry index alongside the measurement indices."""
    telemetry.enable()
    sim = Simulator()
    fam = telemetry.registry().counter("repro_work_total")
    archiver = Archiver()
    # A measurement document, as the control plane would ship it.
    archiver.sink(Block([document_run({"type": "throughput", "flow_id": 1,
                                       "value": 1e8, "@timestamp": 0.05})]))

    sampler = TelemetrySampler(sim, archiver, interval_ns=100 * MS,
                               retention=32)
    sampler.start()
    sim.every(10 * MS, fam.inc)
    sim.run_until(1_000 * MS)

    assert sampler.events_pushed > 0
    assert archiver.telemetry_count() == sampler.events_pushed
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


def test_the_archivers_counters_count_what_each_writer_wrote():
    """A sampler and a control plane share one archiver: the record
    counters count the control plane's records, and documents written
    are counted per index, the flight recorder's in its own."""
    from repro.core.control_plane import MonitorControlPlane
    from tests.core.helpers import FlowScript, small_monitor

    telemetry.enable()
    sim = Simulator()
    archiver = Archiver()
    mon = small_monitor()
    cp = MonitorControlPlane(sim, mon, report_sink=archiver.sink)
    script = FlowScript(mon)
    script.make_long()
    for i in range(40):
        t = 20 * MS * (i + 1)
        script.transit(2000 + i * 1000, 1000, t, t + 200_000)
        script.ack(3000 + i * 1000, t + 5 * MS)
    cp.start()
    sampler = TelemetrySampler(sim, archiver, interval_ns=100 * MS, retention=32)
    sampler.start()
    sim.run_until(1_000 * MS)

    snap = {m["name"]: m["series"] for m in telemetry.snapshot()["metrics"]}
    written = {s["labels"]["index"]: s["value"]
               for s in snap["repro_archiver_documents_written"]}
    recorder = "pscheduler-repro_telemetry"
    measurements = sum(n for index, n in written.items() if index != recorder)
    assert written[recorder] == sampler.events_pushed > 0
    assert measurements == archiver.measurements_written > 0
    assert measurements == sum(archiver.store.count(index) for index in written
                               if index != recorder)
    assert snap["repro_archiver_records_total"][0]["value"] == measurements
    assert snap["repro_archiver_record_fields"][0]["count"] == measurements
