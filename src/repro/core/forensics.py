"""Queue forensics: time-window extraction + culprit attribution.

Companion to the :class:`repro.p4.time_windows.TimeWindowRegister`
extern the queue monitor maintains on the TAP-pair match path.  At each
forensics tick the extractor flips the banks and folds the decoded
windows into a per-interval **queue-ancestry index**: for every
coarsening level, which flow signed each time window and how many
packets/bytes it recorded.  The query engine answers
``culprits(flow, t0, t1)`` from that index — ranked (flow,
bytes-contributed, window-coverage) attributions of who occupied the
queue while flow X suffered.

The loop closes with the existing observability surfaces: a microburst
digest or an ``rtt_distribution`` change-point alert enqueues a pending
query, and the *next* forensics tick (after the banks are freshly
extracted, so the trouble interval's windows are in the index) runs it,
ships a ``repro-forensics-v1`` report to the archiver, fires the
provenance ``alert`` trigger and refreshes the ``watch`` header's
top-culprit line.  Queries over intervals holding less byte mass than
:data:`MIN_WINDOW_BYTES` are suppressed — report only
change-significant windows, not every register read.

Attribution caveat (the single-slot compromise hardware makes): each
window cell signs its *last writer*, so a window's packet/byte counts
are attributed wholly to the signing flow.  At millisecond base windows
a queue-building flow signs the windows it dominates, which is what the
ranking needs; precision/recall against the ground-truth oracle is
scored in ``tests/validation/test_forensics_attribution.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netsim.packet import int_to_ip
from repro.p4.time_windows import decode_windows
from repro.core.reports import ForensicsReport

# Per-window index entry: (flow_sig, pkt_count, byte_count, max_qdepth_ns).
_SIG, _PKTS, _BYTES, _MAXQ = range(4)

# Culprits a report ranks.
TOP_N = 5
# Queries over intervals holding less byte mass than this are suppressed
# (report only change-significant windows).
MIN_WINDOW_BYTES = 1500


class ForensicsExtractor:
    """Periodic time-window extraction + culprit queries, bound to one
    control plane at construction time (the twin-binding pattern: the
    queue monitor either built the extern or the hook is ``None``)."""

    def __init__(self, cp) -> None:
        self.cp = cp
        self.tw = cp.monitor.queue.time_windows
        self.levels = self.tw.levels
        self.base_window_ns = self.tw.base_window_ns
        # Queue-ancestry index: per level, window_id -> [sig, pkts,
        # bytes, max_qdepth].  Repeated extractions of the same window
        # (residue + post-flip writes) merge: counts sum, max holds,
        # the signature follows the latest extraction.
        self.index: List[Dict[int, list]] = [dict() for _ in range(self.levels)]
        # Keep an order of magnitude more history than the ring itself
        # holds; beyond that the oldest window ids are dropped.
        self.retain = self.tw.cells * 16
        self.ticks = 0
        self.extractions = 0
        # Per-level packet/byte mass folded out of the banks so far:
        # together with the live banks' residue and the extern's
        # eviction tallies this conserves against ``tw.ops`` (the
        # crash-recovery invariant docs/robustness.md states).
        self.extracted_pkts = [0] * self.levels
        self.extracted_bytes = [0] * self.levels
        self.queries = 0
        self.suppressed = 0
        self.latest: Optional[ForensicsReport] = None
        self._pending: List[tuple] = []

    # -- alert hooks (enqueue; the query runs at the next tick, after a
    # fresh extraction has the trouble interval's windows in the index) ------

    def on_microburst(self, event) -> None:
        """Microburst digest → pending culprit query over the burst."""
        self._pending.append((
            "microburst",
            event.start_ns,
            event.start_ns + max(event.duration_ns, self.base_window_ns),
            None,
            event.port_id,
        ))

    def on_change_point(self, now: int, alert) -> None:
        """rtt_distribution alert → query the shifted window's interval."""
        lookback = self.cp.interval_ns(
            "histograms" if self.cp.histograms is not None else "forensics")
        self._pending.append(
            ("rtt_distribution", max(0, now - lookback), now, None, None))

    # -- the extraction body (the ``forensics`` schedule job) ------------------

    def extract(self) -> None:
        self._fold_bank()
        self._run_pending()
        self.ticks += 1

    def _fold_bank(self) -> None:
        self.extractions += 1
        bank = self.cp.runtime.extract_time_windows("time_windows")
        for rec in decode_windows(bank, self.base_window_ns):
            self.extracted_pkts[rec.level] += rec.pkt_count
            self.extracted_bytes[rec.level] += rec.byte_count
            d = self.index[rec.level]
            cur = d.get(rec.window_id)
            if cur is None:
                d[rec.window_id] = [rec.flow_sig, rec.pkt_count,
                                    rec.byte_count, rec.max_qdepth_ns]
            else:
                cur[_SIG] = rec.flow_sig
                cur[_PKTS] += rec.pkt_count
                cur[_BYTES] += rec.byte_count
                if rec.max_qdepth_ns > cur[_MAXQ]:
                    cur[_MAXQ] = rec.max_qdepth_ns
        for d in self.index:
            if len(d) > self.retain:
                for wid in sorted(d)[:len(d) - self.retain]:
                    del d[wid]

    def _run_pending(self) -> None:
        cp = self.cp
        pending, self._pending = self._pending, []
        for trigger, t0, t1, victim, port_id in pending:
            report = self.query(victim, t0, t1, trigger=trigger,
                                port_id=port_id)
            if report is None:
                self.suppressed += 1
                continue
            self.latest = report
            if cp._trace is not None:
                cp._trace.fire("alert", report.time_ns,
                               metric="queue_forensics", trigger=trigger,
                               culprits=len(report.culprits))
            cp._ship(report)

    # -- the query engine ----------------------------------------------------

    def windows_in(self, t0_ns: int, t1_ns: int,
                   level: int) -> List[Tuple[int, list]]:
        """(window_id, entry) pairs at one level overlapping [t0, t1)."""
        width = self.base_window_ns << level
        lo = t0_ns // width           # first window id that could overlap
        hi = (max(t1_ns, t0_ns + 1) - 1) // width
        d = self.index[level]
        return [(wid, d[wid]) for wid in range(lo, hi + 1) if wid in d]

    def culprits(self, flow: Optional[int], t0_ns: int,
                 t1_ns: int) -> Tuple[int, int, int, List[dict]]:
        """Ranked attributions for [t0, t1): which flows' packets built
        the queue.  Resolves at the finest coarsening level that still
        holds windows for the interval; when ``flow`` is given, that
        victim's own contribution (both directions) is excluded.
        Returns ``(level, windows, total_bytes, ranked)``."""
        self.queries += 1
        excluded = set()
        if flow is not None:
            excluded.add(flow)
            tf = self.cp.flows.get(flow)
            if tf is not None:
                excluded.add(tf.rev_flow_id)
        for level in range(self.levels):
            rows = self.windows_in(t0_ns, t1_ns, level)
            if rows:
                break
        else:
            return 0, 0, 0, []
        total_bytes = sum(entry[_BYTES] for _, entry in rows)
        per_flow: Dict[int, list] = {}
        for _, entry in rows:
            sig = entry[_SIG]
            if sig in excluded:
                continue
            agg = per_flow.get(sig)
            if agg is None:
                per_flow[sig] = [entry[_PKTS], entry[_BYTES], 1, entry[_MAXQ]]
            else:
                agg[0] += entry[_PKTS]
                agg[1] += entry[_BYTES]
                agg[2] += 1
                if entry[_MAXQ] > agg[3]:
                    agg[3] = entry[_MAXQ]
        nwindows = len(rows)
        ranked = []
        for sig, (pkts, nbytes, signed, maxq) in sorted(
                per_flow.items(), key=lambda kv: (-kv[1][1], kv[0])):
            culprit = {
                "flow_id": sig,
                "bytes": nbytes,
                "packets": pkts,
                "windows": signed,
                "coverage": signed / nwindows,
                "share": (nbytes / total_bytes) if total_bytes else 0.0,
                "max_qdepth_ns": maxq,
            }
            culprit.update(self._resolve(sig))
            ranked.append(culprit)
        return level, nwindows, total_bytes, ranked[:TOP_N]

    def query(self, flow: Optional[int], t0_ns: int, t1_ns: int,
              trigger: str = "query",
              port_id: Optional[int] = None) -> Optional[ForensicsReport]:
        """Run one culprit query; ``None`` when the interval holds less
        byte mass than :data:`MIN_WINDOW_BYTES` (suppressed)."""
        level, nwindows, total_bytes, ranked = self.culprits(
            flow, t0_ns, t1_ns)
        if nwindows == 0 or total_bytes < MIN_WINDOW_BYTES or not ranked:
            return None
        return ForensicsReport(
            time_ns=self.cp.sim.now,
            trigger=trigger,
            t0_ns=t0_ns,
            t1_ns=t1_ns,
            level=level,
            window_width_ns=self.base_window_ns << level,
            windows=nwindows,
            total_bytes=total_bytes,
            culprits=ranked,
            victim_flow_id=flow,
            port_id=port_id,
        )

    def _resolve(self, sig: int) -> dict:
        """Endpoint identity of a flow signature, when still tracked.
        Egress copies in the ACK direction carry the reversed flow id,
        so a signature may match a tracked flow's ``rev_flow_id``."""
        tf = self.cp.flows.get(sig)
        if tf is not None:
            return {"source_ip": int_to_ip(tf.src_ip),
                    "destination_ip": int_to_ip(tf.dst_ip),
                    "source_port": tf.src_port,
                    "destination_port": tf.dst_port}
        for tf in self.cp.flows.values():
            if tf.rev_flow_id == sig:
                return {"source_ip": int_to_ip(tf.dst_ip),
                        "destination_ip": int_to_ip(tf.src_ip),
                        "source_port": tf.dst_port,
                        "destination_port": tf.src_port}
        return {}

    # -- surfaces (watch header, CLI) ----------------------------------------

    def watch_line(self) -> Optional[str]:
        """One-line top-culprit summary for the live watch header."""
        report = self.latest
        if report is None or not report.culprits:
            return None
        top = report.culprits[0]
        who = top.get("source_ip")
        label = (f"{who}:{top['source_port']}" if who
                 else f"{top['flow_id'] & 0xFFFFFF:06x}")
        return (f"top culprit: {label}  {top['bytes']} B over "
                f"{top['windows']} window(s)  {top['share'] * 100:.0f}% of "
                f"queue bytes  (trigger: {report.trigger})")


def render_culprits(report: ForensicsReport) -> str:
    """Terminal ranking table for one forensics report."""
    span_ms = (report.t1_ns - report.t0_ns) / 1e6
    lines = [
        f"  trigger {report.trigger}  interval {span_ms:.1f}ms  "
        f"level {report.level} ({report.window_width_ns / 1e6:.1f}ms windows)  "
        f"{report.windows} window(s)  {report.total_bytes} B",
        f"  {'rank':<5} {'flow':<22} {'bytes':>12} {'pkts':>7} "
        f"{'windows':>8} {'coverage':>9} {'share':>7}",
        "  " + "-" * 75,
    ]
    for rank, c in enumerate(report.culprits, start=1):
        who = c.get("source_ip")
        label = (f"{who}:{c['source_port']}" if who
                 else f"{c['flow_id'] & 0xFFFFFF:06x}")
        lines.append(
            f"  {rank:<5} {label:<22} {c['bytes']:>12} {c['packets']:>7} "
            f"{c['windows']:>8} {c['coverage']:>8.0%} {c['share']:>6.0%}")
    return "\n".join(lines)
