"""Congestion-control algorithms.

The connection machinery (:mod:`repro.tcp.stack`) handles loss *detection*
(dupacks, RTO) and recovery bookkeeping; these classes decide how ``cwnd``
and ``ssthresh`` move.  Units are bytes throughout; time is integer ns.

Reno implements RFC 5681 slow start / congestion avoidance.  Cubic
implements RFC 8312 window growth (cubic function of time since the last
loss event, with the TCP-friendly region).
"""

from __future__ import annotations

import importlib

from repro.netsim.units import NS_PER_S


class CongestionControl:
    """Base class; concrete algorithms override the growth hooks."""

    name = "base"

    #: HyStart-style delay-increase slow-start exit (on by default, as in
    #: Linux CUBIC): leave slow start when the RTT inflates well past the
    #: observed minimum, before the queue overflows.
    HYSTART_RTT_FACTOR = 1.5

    def __init__(self, mss: int, initial_window_segments: int = 10,
                 hystart: bool = True) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd: float = float(initial_window_segments * mss)
        self.ssthresh: float = float(1 << 30)
        self.hystart = hystart
        self._min_rtt_ns: int = 0

    def _hystart(self, rtt_ns: int) -> bool:
        """HyStart's delay check on one ACK's RTT; -> still in slow start."""
        if rtt_ns > 0:
            min_rtt = self._min_rtt_ns
            if min_rtt == 0 or rtt_ns < min_rtt:
                self._min_rtt_ns = min_rtt = rtt_ns
            if (
                self.hystart
                and self.cwnd < self.ssthresh
                and rtt_ns > min_rtt * self.HYSTART_RTT_FACTOR
            ):
                self.ssthresh = self.cwnd
        return self.cwnd < self.ssthresh

    # -- hooks ---------------------------------------------------------------

    def on_ack(self, acked_bytes: int, rtt_ns: int, now_ns: int, flight_bytes: int) -> None:
        """Called for every ACK that advances ``snd_una``."""
        raise NotImplementedError

    def on_loss_event(self, flight_bytes: int, now_ns: int) -> None:
        """Fast-retransmit entry: a congestion event (not an RTO)."""
        raise NotImplementedError

    def on_rto(self, flight_bytes: int, now_ns: int) -> None:
        """Retransmission timeout: collapse to one segment, slow start."""
        self.ssthresh = max(flight_bytes / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)

    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    @property
    def cwnd_bytes(self) -> int:
        return max(self.mss, int(self.cwnd))


class Reno(CongestionControl):
    """RFC 5681 Reno: exponential slow start, +1 MSS/RTT congestion
    avoidance, multiplicative decrease by 1/2."""

    name = "reno"
    BETA = 0.5

    def on_ack(self, acked_bytes: int, rtt_ns: int, now_ns: int, flight_bytes: int) -> None:
        if self._hystart(rtt_ns):
            self.cwnd += min(acked_bytes, self.mss)
        else:
            # Standard per-ACK additive increase: mss*mss/cwnd.
            self.cwnd += self.mss * self.mss / self.cwnd

    def on_loss_event(self, flight_bytes: int, now_ns: int) -> None:
        self.ssthresh = max(flight_bytes * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh


class Cubic(CongestionControl):
    """RFC 8312 CUBIC.

    ``W(t) = C*(t - K)^3 + W_max`` with ``K = cbrt(W_max*(1-beta)/C)``.
    ``C`` is expressed in MSS/s^3 as in the RFC and converted to bytes
    internally.  The TCP-friendly (Reno-emulation) region guards the
    low-BDP regime.
    """

    name = "cubic"
    BETA = 0.7
    C_MSS = 0.4  # RFC 8312 constant, in MSS/s^3

    def __init__(self, mss: int, initial_window_segments: int = 10,
                 hystart: bool = True) -> None:
        super().__init__(mss, initial_window_segments, hystart=hystart)
        self._w_max: float = 0.0
        self._k_s: float = 0.0
        self._epoch_start_ns: int = -1
        self._w_est: float = 0.0  # TCP-friendly estimate
        # Constants of the growth function: C in bytes/s^3, and alpha of
        # the TCP-friendly region (RFC 8312 §4.2).
        self._c_bytes = self.C_MSS * mss
        self._alpha = 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)

    def on_ack(self, acked_bytes: int, rtt_ns: int, now_ns: int, flight_bytes: int) -> None:
        if self._hystart(rtt_ns):
            self.cwnd += min(acked_bytes, self.mss)
            return
        cwnd = self.cwnd
        if self._epoch_start_ns < 0:
            # First CA ack after a loss event (or after leaving slow start
            # without one): open a cubic epoch anchored at current cwnd.
            self._epoch_start_ns = now_ns
            if self._w_max < cwnd:
                self._w_max = cwnd
                self._k_s = 0.0
            else:
                self._k_s = ((self._w_max - cwnd) / self._c_bytes) ** (1.0 / 3.0)
            self._w_est = cwnd
        t_s = (now_ns - self._epoch_start_ns) / NS_PER_S
        rtt_s = (rtt_ns if rtt_ns > 1 else 1) / NS_PER_S
        target = self._c_bytes * (t_s + rtt_s - self._k_s) ** 3 + self._w_max
        denom = cwnd if cwnd > 1.0 else 1.0  # max(cwnd, 1.0)
        # TCP-friendly region (RFC 8312 §4.2).
        w_est = self._w_est + self._alpha * self.mss * acked_bytes / denom
        self._w_est = w_est
        if w_est > target:
            target = w_est
        if target > cwnd:
            # Approach the target over one RTT's worth of acks.
            self.cwnd = cwnd + (target - cwnd) * acked_bytes / denom
        else:
            self.cwnd = cwnd + 0.01 * self.mss * acked_bytes / denom

    def on_loss_event(self, flight_bytes: int, now_ns: int) -> None:
        self._epoch_start_ns = -1
        self._w_max = self.cwnd
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh

    def on_rto(self, flight_bytes: int, now_ns: int) -> None:
        super().on_rto(flight_bytes, now_ns)
        self._epoch_start_ns = -1
        self._w_max = max(self._w_max, self.cwnd)


#: Algorithms by name.  A built-in that lives in a module of its own is
#: named ``"module:Class"`` and imported the first time it is made.
_REGISTRY = {"reno": Reno, "cubic": Cubic, "bbr": "repro.tcp.bbr:BbrLite"}


def make_cc(name: str, mss: int, **kwargs) -> CongestionControl:
    """Factory: ``make_cc('cubic', mss=8948)``."""
    key = name.lower()
    try:
        cls = _REGISTRY[key]
    except KeyError:
        raise ValueError(f"unknown congestion control {name!r}; have {sorted(_REGISTRY)}") from None
    if isinstance(cls, str):
        module, _, attr = cls.partition(":")
        cls = _REGISTRY[key] = getattr(importlib.import_module(module), attr)
    return cls(mss, **kwargs)


def register_cc(name: str, cls: type) -> None:
    """Extension point for custom algorithms (used by tests)."""
    if not issubclass(cls, CongestionControl):
        raise TypeError("cc class must subclass CongestionControl")
    _REGISTRY[name.lower()] = cls
