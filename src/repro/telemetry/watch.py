"""Terminal flight-recorder view: top-N series + sparklines + alerts.

:func:`render_watch` turns the archived tail of a
:class:`~repro.telemetry.timeseries.TelemetrySampler` into one text
frame — the ``repro-experiments watch`` CLI mode prints a frame per
refresh interval while the run is in flight, giving the
`watch(1)`-style live view the paper's Grafana dashboards provide for
the measured network, but for the instrument itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.telemetry.export import _fmt  # shared human number formatting

__all__ = ["sparkline", "render_watch"]

SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: What a frame's table reads of each archived telemetry document.
_FIELDS = ("metric", "labels", "value", "delta", "rate_per_s")


def _series(doc: dict) -> tuple:
    """An archived document's series: (metric, sorted label items)."""
    return doc["metric"], tuple(sorted(doc["labels"].items()))


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Unicode block sparkline of the last ``width`` values."""
    vals = list(values)[-width:]
    if not vals:
        return ""
    lo = min(vals)
    hi = max(vals)
    span = hi - lo
    if span <= 0:
        return SPARK_LEVELS[0] * len(vals)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[int(round((v - lo) / span * top))] for v in vals)


def _alert_line(alerts) -> str:
    """One-line alert state from a list of ``Alert``-shaped objects."""
    if not alerts:
        return "alerts: none"
    parts = []
    for alert in alerts[:4]:
        flow = f" flow {alert.flow_id}" if alert.flow_id is not None else ""
        parts.append(f"{alert.metric}{flow} "
                     f"({_fmt(alert.value)} > {_fmt(alert.threshold)})")
    more = f" (+{len(alerts) - 4} more)" if len(alerts) > 4 else ""
    return f"alerts: {len(alerts)} active — " + ", ".join(parts) + more


def render_watch(sampler, top: int = 12, width: int = 24,
                 now_ns: Optional[int] = None, samples: Optional[int] = None,
                 alerts: Optional[list] = None,
                 sim_stats: Optional[str] = None,
                 hist_line: Optional[str] = None,
                 forensics_line: Optional[str] = None) -> str:
    """One watch frame: header, scheduler line, top-N table with
    sparklines, alert line.

    ``sim_stats`` is a pre-rendered scheduler-introspection line
    (pending events / queue high-water mark / events run) shown right
    under the header — the CLI's watch mode feeds it from the live
    simulator.  ``hist_line`` is the control plane's live p99-RTT
    distribution summary, shown the same way when histograms are on;
    ``forensics_line`` is the latest top-culprit attribution, shown when
    queue forensics is on and an alert has run a culprit query.

    The table reads the archive: the sampler's last tick ranks the
    series by how fast they are moving right now (|last delta|, ties in
    the order the series were first seen), and the last ``width`` ticks
    of the top ones draw their sparklines.  A sparkline plots per-tick
    deltas, so a steady counter reads flat and a burst reads as a
    spike — the same reason the archive stores deltas alongside raw
    values.
    """
    header = "flight recorder"
    if now_ns is not None:
        header += f"  t={now_ns / 1e9:.2f}s"
    if samples is not None:
        header += f"  samples={samples}"
    header += (f"  series={len(sampler.series)}"
               f"  points={sampler.archiver.telemetry_count()}"
               f" (cap {sampler.retention}/series)")
    if sim_stats:
        header += "\n" + sim_stats
    if hist_line:
        header += "\n" + hist_line
    if forensics_line:
        header += "\n" + forensics_line

    last = {_series(doc): doc for doc in sampler.tail(1, fields=_FIELDS)}
    ranked = sorted((key for key in sampler.series if key in last),
                    key=lambda key: abs(last[key]["delta"]), reverse=True)[:top]
    deltas: Dict[tuple, List[float]] = {}
    for doc in sampler.tail(width, fields=("metric", "labels", "delta"), terms={
            "metric": {name for name, _ in ranked},
            "labels": [dict(labels) for _, labels in ranked]}):
        deltas.setdefault(_series(doc), []).append(doc["delta"])
    rows: List[tuple] = []
    for key in ranked:
        doc = last[key]
        rows.append((
            key[0],
            ",".join(f"{k}={v}" for k, v in key[1]),
            _fmt(doc["value"]),
            _fmt(doc["delta"]),
            _fmt(doc["rate_per_s"]),
            sparkline(deltas[key], width),
        ))
    if not rows:
        return header + "\n(no samples yet)\n" + _alert_line(alerts) + "\n"

    heads = ("metric", "labels", "value", "delta", "rate/s", "delta trend")
    widths = [max(len(heads[i]), max(len(r[i]) for r in rows))
              for i in range(5)]
    lines = [header,
             "  ".join(h.ljust(widths[i]) if i < 5 else h
                       for i, h in enumerate(heads))]
    lines.append("-" * len(lines[1]))
    for row in rows:
        lines.append("  ".join(
            row[i].ljust(widths[i]) if i < 5 else row[i] for i in range(6)))
    lines.append(_alert_line(alerts))
    return "\n".join(lines) + "\n"
