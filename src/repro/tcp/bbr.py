"""A BBR-style model-based congestion control (simplified BBRv1).

The paper's related work (Gomez et al., Kfoury et al.) studies how
P4-based monitoring interacts with modern congestion-control algorithms;
this implementation lets the experiments run BBR-like senders next to
CUBIC/Reno ones: the monitor's limiter sees a paced, loss-insensitive
flow, and fairness/queue dynamics change accordingly.

Model, per the BBR papers:

- **BtlBw**: windowed-max filter over delivery-rate samples;
- **RTprop**: windowed-min filter over RTT samples;
- pacing rate = ``pacing_gain × BtlBw``; cwnd = ``cwnd_gain × BDP``;
- STARTUP (gain 2/ln2) until BtlBw stops growing 25 % per round, then
  DRAIN (inverse gain) down to the BDP, then PROBE_BW cycling the gain
  through [1.25, 0.75, 1, 1, 1, 1, 1, 1];
- loss is NOT a primary signal (on_loss_event only floors the cwnd).

PROBE_RTT is omitted (runs here are far shorter than its 10 s period).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.netsim.units import NS_PER_S
from repro.tcp.cc import CongestionControl

STARTUP_GAIN = 2.885  # 2/ln(2)
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CWND_GAIN = 2.0


class BbrLite(CongestionControl):
    name = "bbr"

    def __init__(self, mss: int, initial_window_segments: int = 10,
                 hystart: bool = True) -> None:
        super().__init__(mss, initial_window_segments, hystart=False)
        self._state = "startup"
        self._btlbw_bps = 0.0
        self._bw_samples: Deque[Tuple[int, float]] = deque()  # (t, bps)
        self._rtprop_ns: Optional[int] = None
        self._rtprop_samples: Deque[Tuple[int, int]] = deque()
        self._bw_window_ns = 4_000_000_000   # ~10 rounds at WAN RTTs
        self._rt_window_ns = 10_000_000_000
        self._last_ack_ns: Optional[int] = None
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_start_ns = 0

    # -- filters -----------------------------------------------------------

    def _update_btlbw(self, sample_bps: float, now_ns: int) -> None:
        self._bw_samples.append((now_ns, sample_bps))
        cutoff = now_ns - self._bw_window_ns
        while self._bw_samples and self._bw_samples[0][0] < cutoff:
            self._bw_samples.popleft()
        self._btlbw_bps = max(s for _, s in self._bw_samples)

    def _update_rtprop(self, rtt_ns: int, now_ns: int) -> None:
        if rtt_ns <= 0:
            return
        self._rtprop_samples.append((now_ns, rtt_ns))
        cutoff = now_ns - self._rt_window_ns
        while self._rtprop_samples and self._rtprop_samples[0][0] < cutoff:
            self._rtprop_samples.popleft()
        self._rtprop_ns = min(r for _, r in self._rtprop_samples)

    @property
    def bdp_bytes(self) -> float:
        if self._btlbw_bps <= 0 or not self._rtprop_ns:
            return float(10 * self.mss)
        return self._btlbw_bps * self._rtprop_ns / (8 * NS_PER_S)

    def _pacing_gain(self) -> float:
        if self._state == "startup":
            return STARTUP_GAIN
        if self._state == "drain":
            return DRAIN_GAIN
        return PROBE_GAINS[self._cycle_index]

    # -- CongestionControl hooks -----------------------------------------------

    def on_ack(self, acked_bytes: int, rtt_ns: int, now_ns: int, flight_bytes: int) -> None:
        self._update_rtprop(rtt_ns, now_ns)
        if self._last_ack_ns is not None and now_ns > self._last_ack_ns:
            sample = acked_bytes * 8 * NS_PER_S / (now_ns - self._last_ack_ns)
            # Cap individual samples at the pacing implied ceiling to damp
            # ack-compression spikes.
            self._update_btlbw(sample, now_ns)
        self._last_ack_ns = now_ns

        if self._state == "startup":
            if self._btlbw_bps > self._full_bw * 1.25:
                self._full_bw = self._btlbw_bps
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._state = "drain"
        elif self._state == "drain":
            if flight_bytes <= self.bdp_bytes:
                self._state = "probe_bw"
                self._cycle_start_ns = now_ns
        elif self._state == "probe_bw":
            rtprop = self._rtprop_ns or 100_000_000
            if now_ns - self._cycle_start_ns >= rtprop:
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAINS)
                self._cycle_start_ns = now_ns

        # cwnd follows the model, not the ack clock.
        self.cwnd = max(float(4 * self.mss), CWND_GAIN * self.bdp_bytes)
        if self._state == "startup":
            # Allow exponential growth while the model is still learning.
            self.cwnd = max(self.cwnd, float(flight_bytes + acked_bytes + 2 * self.mss))

    def on_loss_event(self, flight_bytes: int, now_ns: int) -> None:
        # BBR does not treat loss as a primary signal; keep a sane floor.
        self.cwnd = max(float(4 * self.mss), self.cwnd)

    def on_rto(self, flight_bytes: int, now_ns: int) -> None:
        self.cwnd = float(4 * self.mss)

    def in_slow_start(self) -> bool:
        return self._state == "startup"

    # Consumed by TcpConnection._pacing_rate_bps.
    def pacing_rate_bps(self) -> Optional[int]:
        if self._btlbw_bps <= 0:
            return None  # fall back to fq cwnd/srtt pacing
        return max(1, int(self._pacing_gain() * self._btlbw_bps))

    @property
    def state(self) -> str:
        return self._state

