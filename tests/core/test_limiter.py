"""Flight-size tracking and the §4.4 limitation classifier."""

import random
from collections import deque

import numpy as np
import pytest

from repro.core.config import MonitorConfig
from repro.core.limiter import MIN_FLIGHT_BYTES, RULE_VERDICTS, LimiterClassifier
from repro.core.reports import LimiterVerdict
from repro.core.stats import coefficient_of_variation
from repro.netsim.units import millis

from tests.core.helpers import FlowScript, small_monitor


def test_flight_size_from_wire():
    mon = small_monitor()
    script = FlowScript(mon)
    script.data(1, 1000, millis(1))        # high_seq = 1001
    script.data(1001, 1000, millis(2))     # high_seq = 2001
    script.ack(1001, millis(20))           # high_ack = 1001
    assert mon.flight.flight_bytes(script.slot) == 1000


def test_flight_zero_when_fully_acked():
    mon = small_monitor()
    script = FlowScript(mon)
    script.data(1, 500, millis(1))
    script.ack(501, millis(10))
    assert mon.flight.flight_bytes(script.slot) == 0


def test_rwnd_recorded_from_ack_direction():
    mon = small_monitor()
    script = FlowScript(mon)
    script.data(1, 100, millis(1))
    script.ack(101, millis(5), window=12345)
    mask = mon.config.flow_slots - 1
    assert mon.flight.flow_rwnd.read(script.flow_id & mask) == 12345


def test_retransmission_does_not_shrink_high_seq():
    mon = small_monitor()
    script = FlowScript(mon)
    script.data(1, 1000, millis(1))
    script.data(1001, 1000, millis(2))
    script.data(1, 1000, millis(3))  # retransmission
    mask = mon.config.flow_slots - 1
    assert mon.flight.high_seq.read(script.flow_id & mask) == 2001


# -- classifier -------------------------------------------------------------


def classifier(window=5, cv=0.15, rwnd_fraction=0.6):
    cfg = MonitorConfig(limiter_window=window, limiter_stability_cv=cv,
                        limiter_rwnd_fraction=rwnd_fraction)
    return LimiterClassifier(cfg)


def feed(clf, fid, samples):
    for flight, loss in samples:
        clf.observe(fid, flight, loss)


def test_losses_mean_network_limited():
    clf = classifier()
    feed(clf, 1, [(100_000, 0), (150_000, 2), (120_000, 0), (140_000, 1)])
    verdict, *_ = clf.classify(1, rwnd_bytes=4_000_000)
    assert verdict is LimiterVerdict.NETWORK_LIMITED


def test_stable_flight_near_rwnd_is_receiver_limited():
    clf = classifier()
    feed(clf, 1, [(30_000, 0)] * 6)
    verdict, mean_flight, cv, losses = clf.classify(1, rwnd_bytes=32_768)
    assert verdict is LimiterVerdict.RECEIVER_LIMITED
    assert losses == 0
    assert cv < 0.01


def test_stable_flight_below_rwnd_is_sender_limited():
    clf = classifier()
    feed(clf, 1, [(10_000, 0)] * 6)
    verdict, *_ = clf.classify(1, rwnd_bytes=4_000_000)
    assert verdict is LimiterVerdict.SENDER_LIMITED


def test_growing_flight_without_loss_is_probing():
    clf = classifier()
    feed(clf, 1, [(10_000, 0), (20_000, 0), (40_000, 0), (80_000, 0), (160_000, 0)])
    verdict, *_ = clf.classify(1, rwnd_bytes=4_000_000)
    assert verdict is LimiterVerdict.PROBING


def test_insufficient_history_is_unknown():
    clf = classifier()
    clf.observe(1, 100, 0)
    verdict, *_ = clf.classify(1, rwnd_bytes=1000)
    assert verdict is LimiterVerdict.UNKNOWN
    assert clf.classify(999, rwnd_bytes=1)[0] is LimiterVerdict.UNKNOWN


def test_window_slides_old_losses_out():
    clf = classifier(window=3)
    feed(clf, 1, [(50_000, 5)])          # old loss
    feed(clf, 1, [(50_000, 0)] * 5)      # then quiet and stable
    verdict, *_ = clf.classify(1, rwnd_bytes=4_000_000)
    assert verdict is LimiterVerdict.SENDER_LIMITED


def test_forget_clears_history():
    clf = classifier()
    feed(clf, 1, [(50_000, 1)] * 5)
    clf.forget(1)
    assert clf.classify(1, rwnd_bytes=1)[0] is LimiterVerdict.UNKNOWN


def test_verdict_is_endpoint_property():
    assert LimiterVerdict.SENDER_LIMITED.is_endpoint
    assert LimiterVerdict.RECEIVER_LIMITED.is_endpoint
    assert not LimiterVerdict.NETWORK_LIMITED.is_endpoint
    assert not LimiterVerdict.PROBING.is_endpoint


# -- the matrix classifier against the per-flow one it replaced -----------------


class ReferenceClassifier:
    """The scalar classifier as it stood before the history became a
    matrix (PR 19's parent), kept here as the reference: one deque per
    flow, ``coefficient_of_variation`` per call."""

    def __init__(self, config):
        self.window = config.limiter_window
        self.stability_cv = config.limiter_stability_cv
        self.rwnd_fraction = config.limiter_rwnd_fraction
        self.samples = {}

    def observe(self, flow_id, flight_bytes, loss_delta):
        self.samples.setdefault(flow_id, deque(maxlen=16)).append(
            (flight_bytes, loss_delta))

    def classify(self, flow_id, rwnd_bytes):
        samples = self.samples.get(flow_id)
        if samples is None or len(samples) < 2:
            return LimiterVerdict.UNKNOWN, 0.0, 0.0, 0
        recent = list(samples)[-self.window:]
        flights = [s[0] for s in recent]
        losses = sum(s[1] for s in recent)
        mean_flight = sum(flights) / len(flights)
        cv = coefficient_of_variation(flights)
        if losses > 0:
            return LimiterVerdict.NETWORK_LIMITED, mean_flight, cv, losses
        if rwnd_bytes > 0 and mean_flight >= self.rwnd_fraction * rwnd_bytes:
            return LimiterVerdict.RECEIVER_LIMITED, mean_flight, cv, losses
        if cv <= self.stability_cv:
            return LimiterVerdict.SENDER_LIMITED, mean_flight, cv, losses
        if mean_flight < MIN_FLIGHT_BYTES:
            return LimiterVerdict.SENDER_LIMITED, mean_flight, cv, losses
        if len(flights) >= 3 and flights[-1] > flights[0]:
            return LimiterVerdict.PROBING, mean_flight, cv, losses
        return LimiterVerdict.UNKNOWN, mean_flight, cv, losses

    def forget(self, flow_id):
        self.samples.pop(flow_id, None)


def exact(result):
    verdict, mean_flight, cv, losses = result
    assert type(mean_flight) is float and type(cv) is float and type(losses) is int
    return verdict, mean_flight.hex(), cv.hex(), losses


#: Per-flow sample generators: (flight, loss delta) for tick ``t``.  Between
#: them they reach every rule: losses, a flight pinned at the window, a
#: constant and an all-zero flight (CV 0, mean 0), a trickle, a ramp, noise.
SHAPES = (
    lambda rng, t: (rng.randrange(1 << 32), 0),                  # noise, full width
    lambda rng, t: (rng.randrange(1 << 32), rng.randrange(3)),   # lossy
    lambda rng, t: (50_000, 0),                                  # constant
    lambda rng, t: (0, 0),                                       # idle
    lambda rng, t: (rng.randrange(30_000), 0),                   # trickle
    lambda rng, t: (40_000 + 9_000 * t + rng.randrange(64), 0),  # ramp
    lambda rng, t: (60_000 + rng.randrange(6_000), 0),           # near the pin
)


@pytest.mark.parametrize("window", range(2, 17))
def test_matrix_classifier_equals_the_reference_bit_for_bit(window):
    """>= 10^5 classified histories over the fifteen windows: every
    history length 1..16 and past the ring's wrap, every rule, flows
    forgotten and re-learned into recycled rows, and more flows than the
    initial capacity."""
    rng = random.Random(window)
    cfg = MonitorConfig(limiter_window=window)
    clf, ref = LimiterClassifier(cfg), ReferenceClassifier(cfg)
    shape = {fid: SHAPES[fid % len(SHAPES)] for fid in range(1, 201)}
    assert len(shape) > len(clf._count)          # growth is exercised
    rules_seen, compared = set(), 0
    for t in range(50):
        # Flows join over time (so one tick holds many history lengths),
        # some sit a tick out, and a few are forgotten and come back.
        fids = [fid for fid in shape if fid <= 12 * (t + 1) and rng.random() < 0.9]
        for fid in rng.sample(fids, len(fids) // 20):
            clf.forget(fid)
            ref.forget(fid)
        samples = [shape[fid](rng, t) for fid in fids]
        rwnds = [rng.choice((0, 65_535, 100_000, 4_000_000)) for _ in fids]
        codes, *numbers = clf.step(fids, [s[0] for s in samples],
                                   [s[1] for s in samples], rwnds)
        columns = [[RULE_VERDICTS[code] for code in codes.tolist()],
                   *(column.tolist() for column in numbers)]
        for fid, (flight, loss), rwnd, *got in zip(fids, samples, rwnds, *columns):
            ref.observe(fid, flight, loss)
            want = ref.classify(fid, rwnd)
            assert exact(tuple(got)) == exact(want), (t, fid)
            if compared % 8 == 0:                # the batch of one
                assert exact(clf.classify(fid, rwnd)) == exact(want)
            rules_seen.add(want[0])
            compared += 1
    assert compared >= 6_700                     # x 15 windows > 10^5
    # Probing takes three samples, so a window of two never reaches it.
    assert rules_seen == set(LimiterVerdict) - (
        {LimiterVerdict.PROBING} if window < 3 else set())
    assert clf.history() == {fid: [list(s) for s in samples]
                             for fid, samples in ref.samples.items()}
    assert len(clf._count) < 4 * len(shape)      # rows are recycled, not leaked


def test_flight_cv_equals_the_scalar_statistic_on_random_windows():
    """The row reductions sum in ``coefficient_of_variation``'s order at
    every window length (a Fortran-ordered gather does not, from length
    8 up): 8,000 windows per length, 32-bit flight sizes."""
    rng = np.random.default_rng(5)
    for n in range(2, 17):
        clf = LimiterClassifier(MonitorConfig(limiter_window=n))
        flights = rng.integers(0, 1 << 32, size=(8_000, n))
        fids = list(range(len(flights)))
        for column in flights.T.tolist():
            _, means, cvs, _ = clf.step(fids, column, [0] * len(fids),
                                        [0] * len(fids))
        for row, mean, cv in zip(flights.tolist(), means, cvs):
            assert cv.hex() == float(coefficient_of_variation(row)).hex()
            assert mean.hex() == (sum(row) / n).hex()
