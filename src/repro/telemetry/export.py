"""Snapshot exporters.

All three formats render the *same* snapshot dict produced by
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`, so a snapshot
serialised to JSON and loaded back renders byte-identical Prometheus
text — the round-trip property the integration tests pin down.

- :func:`to_prometheus_text` — the text exposition format, suitable for
  a node-exporter-style scrape file;
- :func:`to_json` — lossless JSON (``json.loads`` reads it back);
- :func:`render_table` — aligned human-readable summary for the CLI.
"""

from __future__ import annotations

import json
import math
import re
from typing import List

__all__ = ["to_prometheus_text", "to_json", "render_table",
           "histogram_quantile"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_labels(labels: dict, extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{"".join(_LABEL_ESCAPES.get(c, c) for c in str(v))}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_num(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(snapshot: dict) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name = _prom_name(metric["name"])
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for series in metric.get("series", []):
            labels = series.get("labels", {})
            if metric["type"] == "histogram":
                cum = 0
                for bound, count in zip(series["buckets"], series["counts"]):
                    cum += count
                    bound_label = 'le="' + _prom_num(bound) + '"'
                    lines.append(
                        f"{name}_bucket{_prom_labels(labels, bound_label)} {cum}"
                    )
                cum += series["counts"][-1]
                inf_label = 'le="+Inf"'
                lines.append(f"{name}_bucket{_prom_labels(labels, inf_label)} {cum}")
                lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_num(series['sum'])}")
                lines.append(f"{name}_count{_prom_labels(labels)} {series['count']}")
            else:
                lines.append(f"{name}{_prom_labels(labels)} {_prom_num(series['value'])}")
    return "\n".join(lines) + "\n"


def to_json(snapshot: dict, indent: int = 2) -> str:
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def histogram_quantile(series: dict, q: float) -> float:
    """Bucket-upper-bound estimate of the ``q`` quantile (0..1) from a
    dumped histogram series (``{"buckets", "counts", "count", "max"}``) —
    the snapshot-side twin of :meth:`Histogram.quantile`, so exporters
    and the watch view can derive p50/p90/p99 without the live object."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    counts = series.get("counts") or []
    count = series.get("count", 0)
    if not count:
        # Dumps from foreign sources (merged bin rows, hand-built dicts)
        # may omit the precomputed total; derive it from the bins.
        count = sum(counts)
    if not count:
        return 0.0
    bounds = series.get("buckets") or []
    observed_max = series.get("max")
    if (observed_max is None
            or not math.isfinite(observed_max)):
        # None, NaN or ±inf would leak straight into the return value on
        # the overflow-bucket path; fall back to the last finite bound.
        observed_max = bounds[-1] if bounds else 0.0
    rank = q * count
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank and c:
            return bounds[i] if i < len(bounds) else observed_max
    return observed_max


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1e9:
        return f"{value / 1e9:.3g}G"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.3g}M"
    if abs(value) >= 1e4:
        return f"{value / 1e3:.3g}k"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def render_table(snapshot: dict) -> str:
    """Aligned ``name  labels  value`` table; histograms show
    count/mean/p50/p90/p99/max instead of a raw value."""
    rows: List[tuple] = []
    for metric in snapshot.get("metrics", []):
        for series in metric.get("series", []):
            labels = series.get("labels", {})
            label_s = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if metric["type"] == "histogram":
                count = series["count"]
                mean = series["sum"] / count if count else 0.0
                value = (f"n={_fmt(count)} mean={_fmt(mean)} "
                         f"p50={_fmt(histogram_quantile(series, 0.50))} "
                         f"p90={_fmt(histogram_quantile(series, 0.90))} "
                         f"p99={_fmt(histogram_quantile(series, 0.99))} "
                         f"max={_fmt(series['max'])}" if count else "n=0")
            else:
                value = _fmt(series["value"])
            rows.append((metric["name"], label_s, value, metric["type"]))
    if not rows:
        return "(no metrics recorded)\n"
    w_name = max(len(r[0]) for r in rows)
    w_label = max(len(r[1]) for r in rows)
    out = [f"{'metric':<{w_name}}  {'labels':<{w_label}}  value"]
    out.append("-" * len(out[0]))
    for name, label_s, value, _ in rows:
        out.append(f"{name:<{w_name}}  {label_s:<{w_label}}  {value}")
    return "\n".join(out) + "\n"
