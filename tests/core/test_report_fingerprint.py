"""Golden fingerprints of the report path at report scale.

Each case replays a seeded TAP copy stream of ~200 thin TCP flows
(no links, no TCP stack) into the batched monitor with every metric
class at 10 samples/s, and ships through Logstash into the archive.
Flows start in two waves 1.1 s apart, so the RTT ticks of the second
wave's arrival mix dozens of flows taking their first RTT sample (no
jitter row) with a hundred taking a later one;
retransmissions feed the loss and limiter streams, and queueing
excursions the queue stream.  Cases differ in seed, in whether every
metric class alerts (thresholds each stream crosses both ways) and in
a degraded-mode stretch.

A fingerprint is two sha256 digests: one over every archived document
(``_id`` and ``_index`` included, per index in name order), one over
every record of the control plane's report streams (``flow_samples``
per metric, ``jitter_samples``, ``limiter_reports``), which are views
rebuilding records from the archive.  A change to the control plane,
Logstash or the archive that keeps them is byte-identical in what it
reports; one that moves them has changed what the system reports, and
re-records them with the reason in its commit message.

The degraded cases' record digests were re-recorded when the streams
stopped being local logs and became views over the archive: a sample
suppressed while degraded never reaches the archive, so the views no
longer hold it (the archive digests did not move).  For the same
reason a degraded case checks that its capture mixes first RTT samples
with later ones on a run of the same capture without the stretch:
``dark_degraded``'s mixed ticks fall inside its stretch.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Tuple

import pytest

from repro.core.config import MetricKind, MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.packet import F_ACK, Packet
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver

from tests.core.helpers import documents_sha256

FLOWS = 200
PAYLOAD = 1448
SLICE_NS = millis(100)
RUN_NS = seconds(3.2)

#: name -> (seed, alerting, degraded stretch (from, to) in seconds or None)
CASES = {
    "dark": (1, False, None),
    "alerts": (2, True, None),
    "alerts_degraded": (3, True, (1.25, 2.05)),
    "dark_degraded": (4, False, (0.85, 1.65)),
}

THRESHOLDS = {
    MetricKind.THROUGHPUT: 140_000.0,     # bit/s: a thin flow's 1-2 segments a tick
    MetricKind.PACKET_LOSS: 30.0,         # %
    MetricKind.RTT: 45.0,                 # ms
    MetricKind.QUEUE_OCCUPANCY: 3.0,      # % of the 100 ms full-buffer drain
}

GOLDEN = {
    "alerts": (
        "9743611a10ac95527bd2e2db65a3002fe668fd7224bcc225350ca783735fa277",
        "cbad362bcb119abf0f35eea30c3b1d8f242ca45fb570064977392be2f2d283a5"),
    "alerts_degraded": (
        "c4453d388c9b46188adecd4dbfeb6fe708d5131d5cfa49910b9a021f51ac684d",
        "60ff8e250884bf3cde329b1cc6a36594bf38b527c10f0abcfc60784ab02afce9"),
    "dark": (
        "c7a6680367224c40fdd2c04f12d7bcb8c73f27c55291fda2df3309f7d14454d9",
        "e6df0210d3d20dad9d6ca5a670584546672b746175b3e708ad89b986383868c0"),
    "dark_degraded": (
        "5ae7590e91b60972e123620273dca2adf05098b84a3bbf5b1691348c8821cfea",
        "12bc92c10fdc5fd36f79acc929f351298718190dd285a8ed1dc16cba9881e2f7"),
}


#: The archive digest without ``_id``s (``documents_sha256``).  When a
#: tick's streams became runs, each run's documents took consecutive
#: ``_id``s, so the digests above were re-pinned (from 4ec0b32a...,
#: 17f15dd0..., e1b4246e... and 86c442f1...); these kept the values the
#: per-row path gave them.
WITHOUT_IDS = {
    "alerts": "98b7f9e24d5d7ce92b4b7d5677d5bb69f7042f88902b4f8983da2b05e51f4cdf",
    "alerts_degraded": "228d2c7d338cf736a80ee1c86d18b940832a02478457f1e56f2861dfe0a05e0b",
    "dark": "07ad4db9404fbe4d33e7e35e99d94782e6b6e35567482c9bf0ffaacd6128e31f",
    "dark_degraded": "7662254784d6c86db6f9d57765b07bde9280a7e60f9bd3b5caf63ff607fe3caf",
}


def copy_stream(seed: int) -> List[Tuple[int, List[MirrorCopy]]]:
    """The seeded capture, cut into ``SLICE_NS`` slices:
    ``[(run_until_ns, copies before it)]``."""
    rng = random.Random(seed)
    events = []          # (t, order, packet, direction)
    ingress, egress = TapDirection.INGRESS, TapDirection.EGRESS
    for f in range(FLOWS):
        src, dst, sport = 0x0A010000 + f, 0x0A020000 + f, 20_000 + f
        t = seconds(1.1) * (f % 2) + rng.randrange(millis(200))
        base_rtt = rng.randrange(millis(10), millis(70))
        seq = rng.randrange(1, 1 << 30)
        sent = []
        for k in range(rng.randrange(10, 26)):
            resend = sent and rng.random() < 0.08
            s = rng.choice(sent) if resend else seq
            if not resend:
                sent.append(seq)
                seq += PAYLOAD
            pkt = Packet.tcp_fast(src, dst, sport, 5201, s, 1, F_ACK, 65535,
                                  PAYLOAD, k, t)
            qdelay = (rng.randrange(millis(2), millis(6))
                      if rng.random() < 0.1 else rng.randrange(50_000, 300_000))
            events.append((t, len(events), pkt, ingress))
            events.append((t + qdelay, len(events), pkt, egress))
            if rng.random() < 0.9:
                rtt = base_rtt + rng.randrange(millis(25))
                ack = Packet.tcp_fast(dst, src, 5201, sport, 1, s + PAYLOAD,
                                      F_ACK, 65535, 0, k, t)
                events.append((t + rtt, len(events), ack, ingress))
            t += rng.randrange(millis(40), millis(120))
    events.sort(key=lambda ev: ev[:2])
    slices, i = [], 0
    for end in range(SLICE_NS, RUN_NS + 1, SLICE_NS):
        copies = []
        while i < len(events) and events[i][0] < end:
            t, _, pkt, direction = events[i]
            copies.append(MirrorCopy(pkt, direction, t))
            i += 1
        slices.append((end, copies))
    return slices


def run_case(seed: int, alerting: bool, degraded):
    config = MonitorConfig(flow_slots=2048, long_flow_bytes=3 * PAYLOAD,
                           idle_intervals_before_evict=4)
    for kind in MetricKind:
        mc = config.metric(kind)
        mc.samples_per_second = 10.0
        if alerting:
            mc.alert_enabled, mc.alert_threshold = True, THRESHOLDS[kind]
            mc.boosted_samples_per_second = 20.0
    sim = Simulator()
    monitor = P4Monitor(config, sim=sim)
    archiver = Archiver()
    cp = MonitorControlPlane(sim, monitor, report_sink=archiver.sink)
    cp.start()
    if degraded is not None:
        sim.at(seconds(degraded[0]) + 7, cp.set_degraded, True, 2.0)
        sim.at(seconds(degraded[1]) + 7, cp.set_degraded, False)
    for end, copies in copy_stream(seed):
        for copy in copies:
            monitor.receive_copy(copy)
        sim.run_until(end)
    cp.stop()
    return cp, archiver


def archive_sha256(store) -> str:
    return hashlib.sha256(json.dumps(
        [store.search(index) for index in store.indices]).encode()).hexdigest()


def logs_sha256(cp) -> str:
    h = hashlib.sha256()
    for log in [*cp.flow_samples.values(), cp.jitter_samples, cp.limiter_reports]:
        h.update(repr(list(log)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_fingerprint(name):
    seed, alerting, degraded = CASES[name]
    cp, archiver = run_case(seed, alerting, degraded)

    # The scenario reaches what it was written for.
    shipped = cp if degraded is None else run_case(seed, alerting, None)[0]
    by_time = {}
    for s in shipped.flow_samples[MetricKind.RTT]:
        by_time.setdefault(s.time_ns, set()).add(s.flow_id)
    jitter_at = {}
    for s in shipped.jitter_samples:
        jitter_at.setdefault(s.time_ns, set()).add(s.flow_id)
    mixed = [t for t, fids in by_time.items()
             if 20 <= len(fids - jitter_at.get(t, set())) <= len(fids) - 20]
    assert len(mixed) >= 2, "ticks mixing first RTT samples with later ones"
    assert len(cp.flows) >= 150 and len(cp.limiter_reports) > 2000
    assert any(s.value > 0 for s in cp.flow_samples[MetricKind.PACKET_LOSS])
    if alerting:
        for kind in MetricKind:
            events = {a.cleared for a in cp.alerts.history if a.metric == kind.value}
            assert events == {False, True}, kind
    else:
        assert not cp.alerts.history
    assert (cp.reports_suppressed > 0) == (degraded is not None)
    assert archiver.output.documents_written == archiver.pipeline.events_in

    assert (archive_sha256(archiver.store), logs_sha256(cp)) == GOLDEN[name], (
        archiver.output.documents_written, cp.reports_suppressed)
    assert documents_sha256(archiver.store) == WITHOUT_IDS[name]
