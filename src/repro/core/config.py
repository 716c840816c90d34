"""Monitor configuration: the knobs Fig. 5(a) gives to pSConfig.

Four metric classes, each with an extraction interval (t_N, t_P, t_R,
t_Q), an optional alert threshold (a_N, a_P, a_R, a_Q), and a boosted
sampling rate applied while the threshold is exceeded ("notifies the
administrator and increases the collection rate to a value defined by
the administrator").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Optional

from repro.netsim.units import seconds


class MetricKind(Enum):
    """The four monitored metric classes of §3.2."""

    THROUGHPUT = "throughput"        # t_N / a_N (byte counts)
    PACKET_LOSS = "packet_loss"      # t_P / a_P
    RTT = "rtt"                      # t_R / a_R
    QUEUE_OCCUPANCY = "queue_occupancy"  # t_Q / a_Q

    @classmethod
    def from_cli(cls, text: str) -> "MetricKind":
        """Accept the pSConfig spellings of Fig. 6 (e.g. ``RTT``,
        ``queue_occupancy``)."""
        normalized = text.strip().lower()
        for kind in cls:
            if kind.value == normalized:
                return kind
        raise ValueError(
            f"unknown metric {text!r}; expected one of "
            f"{[k.value for k in cls]}"
        )


@dataclass
class MetricConfig:
    """Per-metric reporting policy."""

    samples_per_second: float = 1.0
    alert_enabled: bool = False
    # Threshold semantics per metric: throughput in bps, loss in percent,
    # RTT in milliseconds, queue occupancy in percent (Fig. 6 line 3 uses
    # ``--threshold 30`` for 30 % occupancy).
    alert_threshold: Optional[float] = None
    # Rate applied while the alert condition holds.
    boosted_samples_per_second: Optional[float] = None

    def interval_ns(self, boosted: bool = False) -> int:
        rate = self.samples_per_second
        if boosted and self.boosted_samples_per_second:
            rate = self.boosted_samples_per_second
        if rate <= 0:
            raise ValueError("samples_per_second must be positive")
        return max(1, seconds(1.0 / rate))


@dataclass
class MonitorConfig:
    """Full configuration of the data plane + control plane."""

    # Data-plane geometry.
    flow_slots: int = 2048          # "the data plane can track 2048 active flows"
    eack_table_size: int = 65536    # eACK signature/timestamp table (§4.3)
    queue_stash_size: int = 65536   # ingress-copy timestamp stash (§4.2)
    cms_width: int = 4096
    cms_depth: int = 3
    long_flow_bytes: int = 100_000  # CMS byte threshold for 'long flow'
    timestamp_bits: int = 48        # Tofino-style timestamp width
    # eACK stash entries older than this are stale (their data packet was
    # lost and retransmitted); matching them would report recovery time,
    # not path RTT, so they are discarded (Chen et al. do the same).
    rtt_max_age_ns: int = 1_000_000_000

    # Microburst detector (§3.3.3): one instance per tapped egress queue.
    monitored_ports: int = 8

    # Reference parameters of the monitored bottleneck, needed to convert
    # queueing delay into occupancy (§4.2: occupancy = delay / buffer size).
    bottleneck_rate_bps: int = 10_000_000_000
    buffer_bytes: int = 125_000_000

    # Data-plane distribution measurement (read-flip histogram externs):
    # per-flow RTT log bins on the eACK match path and per-port
    # queue-depth log bins on the TAP-pair match path (spans: core/rtt.py,
    # core/queue_monitor.py).
    histograms_enabled: bool = False
    rtt_hist_bins: int = 48
    qdepth_hist_bins: int = 32
    # Control-plane histogram-extraction tick rate; only windows with at
    # least ``histogram_min_samples`` enter change-point detection
    # (core/histograms.py).
    histogram_samples_per_second: float = 1.0
    histogram_min_samples: int = 16

    # Queue forensics (PrintQueue-style time-window registers): k
    # exponentially-coarsening levels of per-window (flow_sig, pkt_count,
    # byte_count, max_qdepth) cells on the queue-monitor egress path,
    # plus the control-plane extractor that indexes them and answers
    # culprit queries when a microburst or rtt_distribution alert fires.
    forensics_enabled: bool = False
    forensics_levels: int = 4
    # 1024 cells x 1 ms covers a full 1 Hz extraction interval at level
    # 0, so windows normally reach the control plane before the ring
    # wraps (evictions only under much faster packet clock skew).
    forensics_cells: int = 1024
    forensics_samples_per_second: float = 1.0

    # Control-plane policy per metric.
    metrics: Dict[MetricKind, MetricConfig] = field(
        default_factory=lambda: {kind: MetricConfig() for kind in MetricKind}
    )

    # Flows with no byte-count movement for this many throughput intervals
    # are evicted from the flow table by the control plane.
    idle_intervals_before_evict: int = 10

    # Columnar batched execution of the per-packet hot path (see
    # repro.core.batch).  Only an override: even when True the monitor
    # falls back to scalar dispatch when something must see each packet
    # on its own (the provenance tracer, the rate meter) or when it is
    # built without a simulator.  Telemetry, the phase profiler and
    # fault injection do not.
    # Set False to force the scalar twin, e.g. for differential testing.
    batched_path: bool = True

    # Optional data-plane rate alerting (trTCM per flow; see
    # repro.core.rate_meter).  Rates are fractions of the bottleneck.
    rate_meter_enabled: bool = False
    rate_meter_cir_fraction: float = 0.5
    rate_meter_pir_fraction: float = 0.8
    rate_meter_burst_bytes: int = 256 * 1024
    rate_meter_red_threshold: int = 50

    # Limiter classifier (§4.4) window and stability tolerance.
    limiter_window: int = 10
    limiter_stability_cv: float = 0.15
    limiter_rwnd_fraction: float = 0.6

    def max_queue_delay_ns(self) -> int:
        """Drain time of a full buffer — the 100 % occupancy point."""
        return self.buffer_bytes * 8 * 1_000_000_000 // self.bottleneck_rate_bps

    def metric(self, kind: MetricKind) -> MetricConfig:
        return self.metrics[kind]

    def validate(self) -> None:
        if self.flow_slots <= 0 or self.flow_slots & (self.flow_slots - 1):
            raise ValueError("flow_slots must be a positive power of two")
        if self.bottleneck_rate_bps <= 0 or self.buffer_bytes <= 0:
            raise ValueError("bottleneck rate and buffer size must be positive")
        # One sample has no variation (every CV 0.0, so every lossless
        # flow would read sender-limited); the history holds no more.
        from repro.core.limiter import LimiterClassifier  # imports this module
        if not 2 <= self.limiter_window <= LimiterClassifier.HISTORY:
            raise ValueError(
                f"limiter_window must be in 2..{LimiterClassifier.HISTORY}")
        for kind, mc in self.metrics.items():
            if mc.samples_per_second <= 0:
                raise ValueError(f"{kind.value}: samples_per_second must be positive")
            if mc.alert_enabled and mc.alert_threshold is None:
                raise ValueError(f"{kind.value}: alert enabled without a threshold")
        if self.histograms_enabled:
            if self.rtt_hist_bins < 2 or self.qdepth_hist_bins < 2:
                raise ValueError("histogram bins must be >= 2")
            if self.histogram_samples_per_second <= 0:
                raise ValueError("histogram_samples_per_second must be positive")
            if self.histogram_min_samples < 1:
                raise ValueError("histogram_min_samples must be >= 1")
        if self.forensics_enabled:
            if self.forensics_levels < 1:
                raise ValueError("forensics_levels must be >= 1")
            if self.forensics_cells <= 0:
                raise ValueError("forensics_cells must be positive")
            if self.forensics_samples_per_second <= 0:
                raise ValueError("forensics_samples_per_second must be positive")

    def copy(self) -> "MonitorConfig":
        return replace(self, metrics={k: replace(v) for k, v in self.metrics.items()})
