"""Export provenance traces as Chrome-trace/Perfetto JSON and text.

The Chrome trace-event format (loadable by https://ui.perfetto.dev and
``chrome://tracing``) maps naturally onto the provenance model:

- each **layer** becomes a process (``pid``) named via ``"M"`` metadata;
- each **trace id** becomes a thread (``tid``) within those processes;
- every :class:`~repro.telemetry.provenance.TraceEvent` becomes an
  instant (``"i"``) whose ``args`` carry the full event — enough to
  reconstruct the original tuples (:func:`events_from_perfetto`);
- per-(layer, packet) **envelope slices** (``"X"``) stretch from the
  first to the last event so a packet's journey is visible without
  zooming to individual instants;
- wide profiler frames (**spans**) land on their own track, and
  **trigger dumps** appear as global instants at the fire time.

Timestamps: the trace format's ``ts`` is microseconds; simulated
nanoseconds are exported as fractional µs (``t_ns / 1000``) with
``displayTimeUnit: "ns"``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.provenance import FrozenWindow, ProvenanceTracer, TraceEvent

__all__ = [
    "LAYER_PIDS",
    "to_perfetto",
    "events_from_perfetto",
    "write_perfetto",
    "render_timeline",
]

#: Stable process ids per layer, so traces from different runs line up.
LAYER_PIDS: Dict[str, int] = {
    "netsim": 1,
    "p4": 2,
    "register": 3,
    "control-plane": 4,
    "archiver": 5,
    "spans": 6,
}
_TRIGGER_PID = 7


def _pid(layer: str) -> int:
    return LAYER_PIDS.get(layer, len(LAYER_PIDS) + 10)


def to_perfetto(
    events: Sequence[TraceEvent],
    spans: Optional[Sequence[dict]] = None,
    dumps: Optional[Sequence[FrozenWindow]] = None,
) -> dict:
    """Build a Chrome-trace JSON document from trace events (+ optional
    span log and trigger dumps)."""
    out: List[dict] = []
    layers_seen = sorted({ev.layer for ev in events} | ({"spans"} if spans else set()))
    for layer in layers_seen:
        out.append({
            "ph": "M", "name": "process_name", "pid": _pid(layer), "tid": 0,
            "args": {"name": f"layer:{layer}"},
        })
    if dumps:
        out.append({
            "ph": "M", "name": "process_name", "pid": _TRIGGER_PID, "tid": 0,
            "args": {"name": "triggers"},
        })

    # Instants carrying the full event for exact round-trip.
    bounds: Dict[Tuple[str, int], List[int]] = {}
    for ev in events:
        out.append({
            "ph": "i", "s": "t",
            "name": f"{ev.kind}:{ev.where}",
            "cat": ev.layer,
            "pid": _pid(ev.layer),
            "tid": ev.trace_id,
            "ts": ev.t_ns / 1000.0,
            "args": {
                "seq": ev.seq,
                "trace_id": ev.trace_id,
                "t_ns": ev.t_ns,
                "layer": ev.layer,
                "kind": ev.kind,
                "where": ev.where,
                "detail": dict(ev.detail),
            },
        })
        lo_hi = bounds.get((ev.layer, ev.trace_id))
        if lo_hi is None:
            bounds[(ev.layer, ev.trace_id)] = [ev.t_ns, ev.t_ns]
        else:
            if ev.t_ns < lo_hi[0]:
                lo_hi[0] = ev.t_ns
            if ev.t_ns > lo_hi[1]:
                lo_hi[1] = ev.t_ns

    # Envelope slices: one per (layer, packet) so journeys read at a glance.
    for (layer, tid), (lo, hi) in sorted(bounds.items()):
        out.append({
            "ph": "X",
            "name": f"pkt {tid} @ {layer}",
            "cat": "envelope",
            "pid": _pid(layer),
            "tid": tid,
            "ts": lo / 1000.0,
            "dur": max(hi - lo, 1) / 1000.0,
            "args": {"trace_id": tid, "layer": layer},
        })

    # Profiler root frames (span log) on their own track.
    for i, span in enumerate(spans or ()):
        out.append({
            "ph": "X",
            "name": span.get("path", "span"),
            "cat": "span",
            "pid": _pid("spans"),
            "tid": 1,
            "ts": span["t0_ns"] / 1000.0,
            "dur": max(int(span.get("dur_ns") or 0), 1) / 1000.0,
            "args": {"wall_ns": span.get("wall_ns"), "index": i},
        })

    # Trigger dumps as global instants.
    for i, dump in enumerate(dumps or ()):
        out.append({
            "ph": "i", "s": "g",
            "name": f"trigger:{dump.reason}",
            "cat": "trigger",
            "pid": _TRIGGER_PID,
            "tid": 1,
            "ts": dump.t_ns / 1000.0,
            "args": {
                "reason": dump.reason,
                "t_ns": dump.t_ns,
                "events_frozen": len(dump.events),
                "detail": dict(dump.detail),
                "index": i,
            },
        })

    return {"traceEvents": out, "displayTimeUnit": "ns"}


def events_from_perfetto(doc: dict) -> List[TraceEvent]:
    """Reconstruct the TraceEvents embedded in a document produced by
    :func:`to_perfetto` (exact round-trip of the event instants)."""
    events: List[TraceEvent] = []
    for entry in doc.get("traceEvents", ()):
        if entry.get("ph") != "i" or entry.get("cat") == "trigger":
            continue
        args = entry.get("args") or {}
        if "seq" not in args:
            continue
        events.append(TraceEvent(
            seq=args["seq"],
            trace_id=args["trace_id"],
            t_ns=args["t_ns"],
            layer=args["layer"],
            kind=args["kind"],
            where=args["where"],
            detail=dict(args.get("detail") or {}),
        ))
    events.sort(key=lambda ev: ev.seq)
    return events


def write_perfetto(path: str, tracer: ProvenanceTracer) -> dict:
    """Serialise a tracer's merged windows + spans + dumps to ``path``."""
    doc = to_perfetto(tracer.events(), spans=tracer.span_log,
                      dumps=tracer.dumps)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return doc


def _fmt_ns(t_ns: int) -> str:
    if t_ns >= 1_000_000_000:
        return f"{t_ns / 1e9:.6f}s"
    if t_ns >= 1_000_000:
        return f"{t_ns / 1e6:.3f}ms"
    if t_ns >= 1_000:
        return f"{t_ns / 1e3:.1f}us"
    return f"{t_ns}ns"


def render_timeline(events: Iterable[TraceEvent],
                    trace_id: Optional[int] = None) -> str:
    """Human-readable flow timeline: one line per event, grouped by
    packet, time-ordered within each packet."""
    by_id: Dict[int, List[TraceEvent]] = {}
    for ev in events:
        if trace_id is not None and ev.trace_id != trace_id:
            continue
        by_id.setdefault(ev.trace_id, []).append(ev)
    lines: List[str] = []
    for tid in sorted(by_id):
        evs = sorted(by_id[tid], key=lambda ev: (ev.t_ns, ev.seq))
        layers = sorted({ev.layer for ev in evs})
        lines.append(f"packet trace {tid}  "
                     f"({len(evs)} events, layers: {', '.join(layers)})")
        for ev in evs:
            detail = ""
            if ev.detail:
                detail = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(ev.detail.items()))
            lines.append(f"  {_fmt_ns(ev.t_ns):>12}  "
                         f"{ev.layer:<13} {ev.kind}:{ev.where}{detail}")
    if not lines:
        lines.append("(no trace events recorded)")
    return "\n".join(lines)
