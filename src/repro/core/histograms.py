"""Control-plane histogram extraction (distribution reports).

Companion to the :class:`repro.p4.histogram.HistogramRegister` externs
the data plane maintains on the eACK RTT match path and the TAP-pair
queue-delay match path.  At each histogram tick the extractor flips the
banks, folds the per-window deltas into cumulative per-row counts,
derives bucket-upper-bound p50/p90/p99/p99.9 and ships full
distributions to the archiver as ``repro-histogram-v1`` documents —
per active flow (RTT), per monitored port (queue depth) and the
all-flow merge.

The all-flow RTT merge also drives change-point detection in the spirit
of the INT event-detection line of work: consecutive windows that both
hold at least ``histogram_min_samples`` are compared by total-variation
distance of their normalised bin masses; a shift above
:data:`SHIFT_THRESHOLD` raises an ``rtt_distribution`` alert and
fires the provenance ``alert`` trigger, freezing the fine-grained trace
window around the moment the distribution moved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.p4.histogram import bin_series
from repro.telemetry.export import histogram_quantile
from repro.core.reports import Alert, HistogramReport

NS_PER_MS = 1_000_000
# Change-point policy: bin-mass (total-variation) shift between two
# consecutive windows above which the alert is raised.
SHIFT_THRESHOLD = 0.35


def quantiles_ms(edges_ns: Sequence[int], counts: Sequence[int]) -> tuple:
    """(p50, p90, p99, p99.9) of one bin row, in milliseconds."""
    series = bin_series(edges_ns, counts)
    return tuple(histogram_quantile(series, q) / NS_PER_MS
                 for q in (0.50, 0.90, 0.99, 0.999))


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Total-variation distance between two bin rows' normalised masses
    (0 = identical shape, 1 = disjoint support)."""
    sa, sb = float(np.sum(a)), float(np.sum(b))
    if sa <= 0 or sb <= 0:
        return 0.0
    pa = np.asarray(a, dtype=np.float64) / sa
    pb = np.asarray(b, dtype=np.float64) / sb
    return 0.5 * float(np.abs(pa - pb).sum())


def _fmt_ms(ns: float) -> str:
    ms = ns / NS_PER_MS
    if ms >= 100:
        return f"{ms:7.0f}ms"
    if ms >= 1:
        return f"{ms:7.2f}ms"
    return f"{ms * 1000:7.0f}us"


def render_bins(edges_ns: Sequence[int], counts: Sequence[int],
                width: int = 40) -> str:
    """Terminal bar chart of one bin row; empty head/tail bins trimmed."""
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total == 0:
        return "  (no samples)"
    nonzero = [i for i, c in enumerate(counts) if c]
    lo, hi = max(0, nonzero[0] - 1), min(len(counts) - 1, nonzero[-1] + 1)
    peak = max(counts)
    lines = []
    for i in range(lo, hi + 1):
        label = (_fmt_ms(edges_ns[i]) if i < len(edges_ns)
                 else f">{_fmt_ms(edges_ns[-1]).strip()}".rjust(9))
        bar = "#" * max(1 if counts[i] else 0,
                        round(width * counts[i] / peak))
        lines.append(f"  <= {label}  {bar:<{width}}  {counts[i]}")
    return "\n".join(lines)


def render_percentiles(rows: List[dict]) -> str:
    """Percentile table for the CLI view; one dict per scope row with
    keys label/count/p50_ms/p90_ms/p99_ms/p999_ms."""
    header = (f"  {'scope':<22} {'samples':>8} {'p50':>9} {'p90':>9} "
              f"{'p99':>9} {'p99.9':>9}")
    lines = [header, "  " + "-" * (len(header) - 2)]
    for row in rows:
        lines.append(
            f"  {row['label']:<22} {row['count']:>8} "
            f"{row['p50_ms']:>7.2f}ms {row['p90_ms']:>7.2f}ms "
            f"{row['p99_ms']:>7.2f}ms {row['p999_ms']:>7.2f}ms")
    return "\n".join(lines)


class HistogramExtractor:
    """Read-flip histogram extraction bound to one control plane.

    Constructed by :class:`MonitorControlPlane` when the data plane was
    built with ``histograms_enabled``; :meth:`extract` is the body of
    the control plane's ``histograms`` schedule job, which supplies the
    timer and the deferral, profiling, telemetry, checkpoint and
    degraded-interval envelope every extraction shares.
    """

    def __init__(self, cp) -> None:
        self.cp = cp
        self.rtt_hist = cp.monitor.rtt_loss.rtt_hist
        self.qdepth_hist = cp.monitor.queue.qdepth_hist
        # Cumulative per-row counts: sum of every extracted window, the
        # all-time distribution percentiles are derived from.
        self.rtt_cumulative = np.zeros(
            (self.rtt_hist.size, self.rtt_hist.nbins), dtype=np.uint64)
        self.qdepth_cumulative = np.zeros(
            (self.qdepth_hist.size, self.qdepth_hist.nbins), dtype=np.uint64)
        self._prev_rtt_window: Optional[np.ndarray] = None
        self.ticks = 0
        self.change_points: List[Alert] = []
        # Latest percentile summaries for the watch header / telemetry
        # mirror: flow_id -> {"count", "p50_ms", "p99_ms", ...}.
        self.latest: Dict[int, dict] = {}
        self.latest_all: Optional[dict] = None

    # -- the extraction body (one bank flip) -----------------------------------

    def extract(self) -> None:
        cp = self.cp
        now = cp.sim.now
        rtt_window = cp.runtime.extract_histogram("rtt_hist")
        qdepth_window = cp.runtime.extract_histogram("qdepth_hist")
        self.rtt_cumulative += rtt_window
        self.qdepth_cumulative += qdepth_window
        edges = self.rtt_hist.edges

        # Per-flow RTT distributions.  Algorithm 1 stores the RTT under
        # the ACK direction's flow ID, so the tracked flow's row is its
        # *reversed* ID's slot (same as the scalar rtt register read).
        for flow in cp._active_flows():
            idx = flow.rslot
            wcount = int(rtt_window[idx].sum())
            counts = self.rtt_cumulative[idx]
            total = int(counts.sum())
            if total == 0:
                continue
            p50, p90, p99, p999 = quantiles_ms(edges, counts)
            self.latest[flow.flow_id] = {
                "count": total, "p50_ms": p50, "p90_ms": p90,
                "p99_ms": p99, "p999_ms": p999,
            }
            if wcount == 0:
                continue  # nothing new this window: summary only, no report
            report = HistogramReport(
                time_ns=now, metric="rtt", scope="flow",
                edges_ns=list(edges), counts=[int(c) for c in counts],
                count=total, p50_ms=p50, p90_ms=p90, p99_ms=p99,
                p999_ms=p999, window_count=wcount,
                flow_id=flow.flow_id, src_ip=flow.src_ip, dst_ip=flow.dst_ip,
            )
            cp._ship(report)

        # All-flow merge + change-point detection on the window shape.
        merged_window = rtt_window.sum(axis=0)
        merged_total = self.rtt_cumulative.sum(axis=0)
        wcount = int(merged_window.sum())
        total = int(merged_total.sum())
        shift: Optional[float] = None
        min_samples = cp.config.histogram_min_samples
        if wcount >= min_samples:
            if (self._prev_rtt_window is not None
                    and int(self._prev_rtt_window.sum()) >= min_samples):
                shift = tv_distance(self._prev_rtt_window, merged_window)
                if shift > SHIFT_THRESHOLD:
                    self._change_point(now, shift)
            self._prev_rtt_window = merged_window
        if total > 0:
            p50, p90, p99, p999 = quantiles_ms(edges, merged_total)
            self.latest_all = {
                "count": total, "p50_ms": p50, "p90_ms": p90,
                "p99_ms": p99, "p999_ms": p999,
            }
            if wcount > 0:
                report = HistogramReport(
                    time_ns=now, metric="rtt", scope="all",
                    edges_ns=list(edges),
                    counts=[int(c) for c in merged_total],
                    count=total, p50_ms=p50, p90_ms=p90, p99_ms=p99,
                    p999_ms=p999, window_count=wcount, shift=shift,
                )
                cp._ship(report)

        # Per-port queue-depth distributions.
        qedges = self.qdepth_hist.edges
        for port in range(self.qdepth_hist.size):
            wcount = int(qdepth_window[port].sum())
            if wcount == 0:
                continue
            counts = self.qdepth_cumulative[port]
            p50, p90, p99, p999 = quantiles_ms(qedges, counts)
            report = HistogramReport(
                time_ns=now, metric="queue_depth", scope="port",
                edges_ns=list(qedges), counts=[int(c) for c in counts],
                count=int(counts.sum()), p50_ms=p50, p90_ms=p90,
                p99_ms=p99, p999_ms=p999, window_count=wcount,
                port_id=port,
            )
            cp._ship(report)
        self.ticks += 1

    def _change_point(self, now: int, shift: float) -> None:
        alert = Alert(
            time_ns=now, metric="rtt_distribution", flow_id=None,
            value=shift, threshold=SHIFT_THRESHOLD,
        )
        self.change_points.append(alert)
        if self.cp._trace is not None:
            # Freeze the fine provenance window around the moment the
            # distribution moved (same trigger the threshold alerts use).
            self.cp._trace.fire("alert", now, metric="rtt_distribution",
                                shift=shift)
        self.cp._ship(alert)
        forensics = getattr(self.cp, "forensics", None)
        if forensics is not None:
            # Which flows moved the distribution?  Queue the culprit
            # query over the window that shifted.
            forensics.on_change_point(now, alert)

    # -- surfaces (watch header) -----------------------------------------------

    def watch_line(self) -> Optional[str]:
        """One-line p99-RTT summary for the live watch header."""
        if self.latest_all is None:
            return None
        parts = [f"all {self.latest_all['p99_ms']:.2f}ms"]
        by_count = sorted(self.latest.items(),
                          key=lambda kv: kv[1]["count"], reverse=True)
        for fid, row in by_count[:4]:
            parts.append(f"{fid & 0xFFFFFF:06x} {row['p99_ms']:.2f}ms")
        return "p99 RTT: " + "  |  ".join(parts)
