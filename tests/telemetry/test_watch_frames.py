"""Pinned `watch` frames: a scripted registry, rendered from the archive.

The registry is driven in sim time only (counters, one of which resets,
a labelled gauge with a label set that appears mid-run, a histogram and
a gauge that never moves), so every frame is deterministic.  The run is
shorter than the retention window, so nothing is pruned and the frames
are exactly what the flight recorder rendered when it kept its own ring
buffers: ``watch_frames.json`` holds those frames.
"""

import json
from pathlib import Path

from repro.netsim.engine import Simulator
from repro.perfsonar.archiver import Archiver
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import TelemetrySampler
from repro.telemetry.watch import render_watch

MS = 1_000_000
INTERVAL_NS = 50 * MS
RETENTION = 64
TICKS = 40          # shorter than the retention window
FRAME_EVERY = 4
TOP = 6             # fewer rows than series: the ranking truncates

EXPECTED = Path(__file__).with_name("watch_frames.json")


def scripted_registry(sim):
    """A registry stepped every 10 ms of sim time."""
    reg = MetricsRegistry()
    sent = reg.counter("repro_demo_sent_total", "segments sent")
    epoch = reg.counter("repro_demo_epoch_total", "a count that restarts")
    depth = reg.gauge("repro_demo_depth", "queue depth", labels=("port",))
    rtt = reg.histogram("repro_demo_rtt_ns", "rtt", buckets=(1_000, 4_000, 16_000))
    reg.gauge("repro_demo_idle", "a gauge that never moves").set(3)

    def step():
        k = sim.now // (10 * MS)
        sent.inc(100 + (k * 37) % 50)
        if k % 60 == 59:
            epoch.reset()
        else:
            epoch.inc(k % 5)
        depth.labels("0").set((k * 13) % 20)
        if k >= 100:
            depth.labels("1").set((k * 7) % 11)
        rtt.observe(500 + (k * 7919) % 20_000)

    sim.every(10 * MS, step)
    return reg


def render_frames():
    sim = Simulator()
    registry = scripted_registry(sim)
    sampler = TelemetrySampler(sim, Archiver(), registry=registry,
                               interval_ns=INTERVAL_NS, retention=RETENTION)
    frames = []

    def frame(t_ns, _block):
        if sampler.samples_taken % FRAME_EVERY == 0:
            frames.append(render_watch(sampler, top=TOP, now_ns=t_ns,
                                       samples=sampler.samples_taken))

    sampler.add_observer(frame)
    sampler.start()
    sim.run_until(TICKS * INTERVAL_NS)
    return frames


def test_frames_match_the_pinned_text():
    frames = render_frames()
    expected = json.loads(EXPECTED.read_text())
    assert len(frames) == len(expected) == TICKS // FRAME_EVERY
    for got, want in zip(frames, expected):
        assert got == want
