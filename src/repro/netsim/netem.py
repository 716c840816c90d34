"""netem-style link impairments.

The Fig. 12 experiment makes the *network* the bottleneck for one flow by
introducing 0.01 % random packet loss; these shims reproduce that (and
extra fixed/jittered delay) on a :class:`repro.netsim.link.Link`.

An impairment's ``process(pkt)`` returns ``None`` to drop the packet or a
non-negative extra delay in nanoseconds to add to the propagation time.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.netsim.packet import Packet


class LossImpairment:
    """Independent (Bernoulli) random loss with probability ``loss_rate``.

    Deterministic under a fixed ``seed`` — required for reproducible
    experiment runs (DESIGN.md §6).
    """

    __slots__ = ("loss_rate", "_rng", "dropped", "passed", "data_only")

    def __init__(self, loss_rate: float, seed: int = 0, data_only: bool = False) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0,1], got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)
        self.dropped = 0
        self.passed = 0
        # data_only restricts loss to payload-carrying segments so ACK loss
        # does not blur the per-flow loss accounting in tests.
        self.data_only = data_only

    def process(self, pkt: Packet) -> Optional[int]:
        if self.data_only and pkt.payload_len == 0:
            self.passed += 1
            return 0
        if self._rng.random() < self.loss_rate:
            self.dropped += 1
            return None
        self.passed += 1
        return 0


class DelayImpairment:
    """Adds a fixed delay plus optional uniform jitter."""

    __slots__ = ("delay_ns", "jitter_ns", "_rng")

    def __init__(self, delay_ns: int, jitter_ns: int = 0, seed: int = 0) -> None:
        if delay_ns < 0 or jitter_ns < 0:
            raise ValueError("delay/jitter cannot be negative")
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self._rng = random.Random(seed)

    def process(self, pkt: Packet) -> Optional[int]:
        if self.jitter_ns == 0:
            return self.delay_ns
        return self.delay_ns + self._rng.randrange(self.jitter_ns + 1)


class FlapImpairment:
    """A mid-run link flap: every packet crossing the link inside
    ``[start_ns, start_ns + duration_ns)`` is lost, both directions — a
    fibre cut / LOS event.  ``clock`` is anything with a ``now`` attribute
    (normally the :class:`~repro.netsim.engine.Simulator`); impairments
    run at delivery time, so ``clock.now`` is the instant the last bit
    left the transmitting port.
    """

    __slots__ = ("clock", "start_ns", "end_ns", "dropped")

    def __init__(self, clock, start_ns: int, duration_ns: int) -> None:
        if start_ns < 0 or duration_ns <= 0:
            raise ValueError("flap start must be >= 0 and duration positive")
        self.clock = clock
        self.start_ns = start_ns
        self.end_ns = start_ns + duration_ns
        self.dropped = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def process(self, pkt: Packet) -> Optional[int]:
        if self.start_ns <= self.clock.now < self.end_ns:
            self.dropped += 1
            return None
        return 0


class ReorderImpairment:
    """Occasionally delays a packet long enough to arrive behind its
    successors — exercises the monitor's robustness to reordering.
    """

    __slots__ = ("probability", "extra_delay_ns", "_rng", "reordered")

    def __init__(self, probability: float, extra_delay_ns: int, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0,1]")
        if extra_delay_ns < 0:
            raise ValueError("extra delay cannot be negative")
        self.probability = probability
        self.extra_delay_ns = extra_delay_ns
        self._rng = random.Random(seed)
        self.reordered = 0

    def process(self, pkt: Packet) -> Optional[int]:
        if self._rng.random() < self.probability:
            self.reordered += 1
            return self.extra_delay_ns
        return 0
