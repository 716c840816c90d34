"""Checkpoint/restore for the monitor control plane (crash recovery).

The crash model (docs/robustness.md "Crash recovery"): the data plane
is switch hardware and survives a control-plane crash; everything the
control-plane *process* holds — extraction cursors, tracked flows,
alert/hysteresis state, histogram and forensics indexes, the shipper's
spool and sequence books, the archiver's dedup high-water marks — dies
with it.  Recovery is lossless iff every piece of state the process has
*irreversibly taken* from the data plane (flipped read-flip banks,
consumed digests, cleared peak-hold registers) is on disk before the
next destructive step.  The control plane therefore ends each
destructive step with :meth:`CheckpointManager.on_tick`, and the
read-flip discipline keeps the un-extracted remainder in the live banks
by construction: crash at any instant, restore the latest checkpoint,
and nothing is double-counted or lost.

One checkpoint is a single ``repro-checkpoint-v1`` JSON document:
numpy register banks as base64 blobs, reports through a dataclass
codec, the whole document content-digested (sha256 over the canonical
serialisation minus the digest field) and written atomically
(tmp + ``os.replace``) into a retained, pruned
:class:`CheckpointStore`.  :func:`restore_control_plane` rebuilds a
freshly-constructed control plane from a document;
:func:`restore_dataplane` additionally bulk-loads a same-geometry
:class:`~repro.p4.runtime.P4Program` (the cold-start path the CLI
``recover`` smoke exercises) and verifies digest equality.

Construction-time binding, same contract as the fault injector: the
control plane reads the ``hooks.checkpoints`` slot
(:mod:`repro.telemetry.hooks`) once in ``__init__``; with no manager
installed every hook is one ``is None`` test, and ``repro.core`` never
imports this module.

Import discipline: at module level this module touches only the
stdlib, numpy and ``repro.telemetry``; every ``repro.core`` name is
imported inside the functions that need it.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import logging
import os
from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.telemetry import hooks

log = logging.getLogger("repro.resilience.checkpoint")

CHECKPOINT_SCHEMA = "repro-checkpoint-v1"


# -- array + document codec ----------------------------------------------------

def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(doc: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(doc["data"]),
                         dtype=np.dtype(doc["dtype"]))
    return flat.reshape(doc["shape"]).copy()


def content_digest(doc: dict) -> str:
    """sha256 over the canonical serialisation, excluding the digest
    field itself — what :meth:`CheckpointStore.load` verifies before
    trusting a file that may have been torn by the crash."""
    body = {k: v for k, v in doc.items() if k != "digest"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- report codec --------------------------------------------------------------

def _report_classes() -> dict:
    from repro.core import reports
    return {cls.__name__: cls for cls in (
        reports.FlowSample, reports.AggregateSample, reports.MicroburstEvent,
        reports.FlowTerminationReport, reports.Alert, reports.HistogramReport,
        reports.ForensicsReport, reports.LimiterReport)}


def _encode_report(report) -> dict:
    doc = dataclasses.asdict(report)
    if "verdict" in doc:
        doc["verdict"] = report.verdict.value
    doc["_cls"] = type(report).__name__
    return doc


def _decode_report(doc: dict):
    doc = dict(doc)
    cls = _report_classes()[doc.pop("_cls")]
    if "verdict" in doc:
        from repro.core.reports import LimiterVerdict
        doc["verdict"] = LimiterVerdict(doc["verdict"])
    return cls(**doc)


def _encode_flow(flow) -> dict:
    doc = flow.record()
    doc["verdict"] = flow.verdict.value
    del doc["rslot"]    # derived from rev_flow_id, so v1 documents lack it
    return doc


def _decode_flow(cp, doc: dict) -> None:
    """Track a checkpointed flow on ``cp``."""
    from repro.core.flow_table import slot_of
    from repro.core.reports import LimiterVerdict
    doc = dict(doc)
    doc["verdict"] = LimiterVerdict(doc["verdict"])
    doc["rslot"] = slot_of(doc["rev_flow_id"], cp.config.flow_slots)
    cp.track(**doc)


# -- capture -------------------------------------------------------------------

def capture_checkpoint(cp, dedup=None, seq: int = 0) -> dict:
    """Serialise everything one control plane + delivery path would need
    to resume after a crash.  ``cp`` is the *calling* control plane (the
    manager deliberately holds no reference: compare-paths builds two
    control planes against one installed manager)."""
    from repro.core.config import MetricKind

    program = cp.runtime.program

    dataplane = {name: _encode_array(arr)
                 for name, arr in sorted(program.state_snapshot().items())}

    # Extern tallies the digest deliberately excludes (they are derived
    # bookkeeping, not register bits): needed so a cold-start restore
    # conserves packets exactly.
    externs: Dict[str, dict] = {}
    for name, hist in program.histograms.items():
        externs[f"histogram/{name}"] = {"ops": hist.ops}
    for name, tw in program.time_windows.items():
        externs[f"time_window/{name}"] = {
            "ops": tw.ops,
            "evicted_pkts": [int(v) for v in tw.evicted_pkts],
            "evicted_bytes": [int(v) for v in tw.evicted_bytes],
        }

    # Per-job schedule records: the four metric classes live in the
    # control_plane section, the two extractors' in their own sections
    # (where v1 has always kept them); cursors cover every job.
    kinds = [k.value for k in MetricKind]
    control_plane = {
        "cursors": {name: int(v) for name, v in cp.last_extraction_ns.items()},
        "ticks_deferred": {k: cp.ticks_deferred[k] for k in kinds},
        "catchup_ticks": {k: cp.catchup_ticks[k] for k in kinds},
        "reports_suppressed": cp.reports_suppressed,
        "degraded": cp.degraded,
        "interval_scale": cp.interval_scale,
        "flows": [_encode_flow(f) for f in cp.flows.values()],
        "alerts": {
            "active": [[kind.value, flow_id, _encode_report(alert)]
                       for (kind, flow_id), alert in cp.alerts._active.items()],
            "history": [_encode_report(a) for a in cp.alerts.history],
        },
        "limiter": {str(fid): samples
                    for fid, samples in cp.limiter.history().items()},
        # The shipped reports are in the archive: only their counts.
        "tallies": dict(+cp.tallies),
    }

    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "seq": seq,
        "time_ns": int(cp.sim.now),
        "dataplane": dataplane,
        "dataplane_digest": program.state_digest(),
        "externs": externs,
        "control_plane": control_plane,
    }

    h = cp.histograms
    if h is not None:
        doc["histograms"] = {
            "rtt_cumulative": _encode_array(h.rtt_cumulative),
            "qdepth_cumulative": _encode_array(h.qdepth_cumulative),
            "prev_rtt_window": (None if h._prev_rtt_window is None
                                else _encode_array(h._prev_rtt_window)),
            "ticks": h.ticks,
            "ticks_deferred": cp.ticks_deferred["histograms"],
            "catchup_ticks": cp.catchup_ticks["histograms"],
            "change_points": [_encode_report(a) for a in h.change_points],
            "latest": {str(fid): row for fid, row in h.latest.items()},
            "latest_all": h.latest_all,
        }

    f = cp.forensics
    if f is not None:
        doc["forensics"] = {
            "index": [[[wid, [int(v) for v in entry]]
                       for wid, entry in sorted(level.items())]
                      for level in f.index],
            "ticks": f.ticks,
            "ticks_deferred": cp.ticks_deferred["forensics"],
            "catchup_ticks": cp.catchup_ticks["forensics"],
            "extractions": f.extractions,
            "extracted_pkts": list(f.extracted_pkts),
            "extracted_bytes": list(f.extracted_bytes),
            "queries": f.queries,
            "suppressed": f.suppressed,
            "pending": [list(item) for item in f._pending],
            "latest": None if f.latest is None else _encode_report(f.latest),
        }

    shipper = cp.report_sink
    if shipper is not None and hasattr(shipper, "checkpoint_state"):
        doc["shipper"] = shipper.checkpoint_state()
        breaker = getattr(shipper, "breaker", None)
        if breaker is not None and hasattr(breaker, "checkpoint_state"):
            doc["breaker"] = breaker.checkpoint_state()

    if dedup is not None:
        doc["dedup"] = dedup.checkpoint_state()

    return doc


# -- restore -------------------------------------------------------------------

def _check_schema(doc: dict) -> None:
    schema = doc.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"not a {CHECKPOINT_SCHEMA} document (schema={schema!r})")


def restore_control_plane(cp, doc: dict) -> None:
    """Rebuild a freshly-constructed (ideally not-yet-started) control
    plane from a checkpoint.  The extraction cursors of the dead
    incarnation are parked in ``_resume_cursors`` so the first
    post-restart tick windows over the true elapsed time — one bounded
    catch-up window spanning the downtime, never a mis-windowed rate."""
    from repro.core.config import MetricKind
    from repro.core.limiter import LimiterClassifier

    _check_schema(doc)
    sec = doc["control_plane"]

    # One cursor per schedule job; documents written before the
    # extractors joined the schedule carry the four metric classes only.
    cursors = {name: int(v) for name, v in sec["cursors"].items()}
    if cp._running:
        cp.last_extraction_ns.update(cursors)
    else:
        cp._resume_cursors = cursors
    cp.ticks_deferred.update(
        {k: int(v) for k, v in sec["ticks_deferred"].items()})
    cp.catchup_ticks.update(
        {k: int(v) for k, v in sec["catchup_ticks"].items()})
    # The document keeps the total; types count from this incarnation on.
    cp.suppressed = {"restored": int(sec["reports_suppressed"])}
    cp.set_degraded(bool(sec["degraded"]),
                    interval_scale=max(1.0, float(sec["interval_scale"])))

    cp.forget_flows()
    for fdoc in sec["flows"]:
        _decode_flow(cp, fdoc)

    cp.alerts._active = {
        (MetricKind(kind), flow_id): _decode_report(alert)
        for kind, flow_id, alert in sec["alerts"]["active"]}
    cp.alerts.history = [_decode_report(a) for a in sec["alerts"]["history"]]

    cp.limiter = LimiterClassifier(cp.config)
    for fid, samples in sec["limiter"].items():
        for flight, loss in samples:
            cp.limiter.observe(int(fid), flight, int(loss))

    if "tallies" in sec:
        cp.tallies = Counter(sec["tallies"])
    else:   # written when a checkpoint kept the reports: count them, drop them
        archives = dict(sec["archives"])
        cp.tallies = Counter({f"p4_{kind}": len(samples)
                              for kind, samples in archives.pop("flow_samples").items()})
        cp.tallies.update({getattr(cp, name).type: len(reports)
                           for name, reports in archives.items()})

    h = cp.histograms
    hsec = doc.get("histograms")
    if h is not None and hsec is not None:
        h.rtt_cumulative = _decode_array(hsec["rtt_cumulative"])
        h.qdepth_cumulative = _decode_array(hsec["qdepth_cumulative"])
        h._prev_rtt_window = (
            None if hsec["prev_rtt_window"] is None
            else _decode_array(hsec["prev_rtt_window"]))
        h.ticks = int(hsec["ticks"])
        cp.ticks_deferred["histograms"] = int(hsec["ticks_deferred"])
        cp.catchup_ticks["histograms"] = int(hsec["catchup_ticks"])
        h.change_points = [_decode_report(a) for a in hsec["change_points"]]
        h.latest = {int(fid): row for fid, row in hsec["latest"].items()}
        h.latest_all = hsec["latest_all"]

    f = cp.forensics
    fsec = doc.get("forensics")
    if f is not None and fsec is not None:
        f.index = [{int(wid): list(entry) for wid, entry in level}
                   for level in fsec["index"]]
        while len(f.index) < f.levels:
            f.index.append({})
        f.ticks = int(fsec["ticks"])
        cp.ticks_deferred["forensics"] = int(fsec["ticks_deferred"])
        cp.catchup_ticks["forensics"] = int(fsec["catchup_ticks"])
        f.extractions = int(fsec["extractions"])
        f.extracted_pkts = [int(v) for v in fsec["extracted_pkts"]]
        f.extracted_bytes = [int(v) for v in fsec["extracted_bytes"]]
        f.queries = int(fsec["queries"])
        f.suppressed = int(fsec["suppressed"])
        f._pending = [tuple(item) for item in fsec["pending"]]
        f.latest = (None if fsec["latest"] is None
                    else _decode_report(fsec["latest"]))
    # The dead incarnation counted what it restored: this one counts on.
    telemetry.rebase(cp)


def restore_dataplane(program, doc: dict) -> str:
    """Cold-start path: bulk-load a same-geometry program's registers
    from a checkpoint and verify the restored state digests equal to the
    captured one.  Unnecessary after a mere control-plane crash (switch
    hardware keeps its registers); this is for bringing a *replacement*
    process+model up to the checkpointed world."""
    _check_schema(doc)
    state = {name: _decode_array(enc)
             for name, enc in doc["dataplane"].items()}
    program.state_restore(state)
    for key, tallies in doc.get("externs", {}).items():
        kind, _, name = key.partition("/")
        if kind == "histogram" and name in program.histograms:
            program.histograms[name].ops = int(tallies["ops"])
        elif kind == "time_window" and name in program.time_windows:
            tw = program.time_windows[name]
            tw.ops = int(tallies["ops"])
            tw.evicted_pkts = [int(v) for v in tallies["evicted_pkts"]]
            tw.evicted_bytes = [int(v) for v in tallies["evicted_bytes"]]
    digest = program.state_digest()
    expected = doc["dataplane_digest"]
    if digest != expected:
        raise ValueError(
            f"restored data-plane digest {digest[:12]} != checkpointed "
            f"{expected[:12]} — geometry mismatch between {program.name!r} "
            "and the checkpointed program?")
    return digest


# -- the on-disk store ---------------------------------------------------------

class CheckpointStore:
    """Retained directory of content-digested checkpoint files.

    Writes are atomic (tmp + ``os.replace``): a crash mid-write leaves
    either the previous file set or the new one, never a torn document.
    ``latest()`` walks newest-first and skips anything whose digest
    fails, so recovery always finds the newest *intact* checkpoint."""

    def __init__(self, directory: str, retain: int = 4) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.directory = directory
        self.retain = retain
        os.makedirs(directory, exist_ok=True)
        self.writes = 0
        self.pruned = 0

    def paths(self) -> List[str]:
        names = sorted(n for n in os.listdir(self.directory)
                       if n.startswith("checkpoint-") and n.endswith(".json"))
        return [os.path.join(self.directory, n) for n in names]

    def write(self, doc: dict) -> str:
        doc = dict(doc)
        doc["digest"] = content_digest(doc)
        path = os.path.join(self.directory,
                            f"checkpoint-{int(doc['seq']):08d}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.writes += 1
        for stale in self.paths()[:-self.retain]:
            os.unlink(stale)
            self.pruned += 1
        return path

    def load(self, path: str) -> dict:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("digest") != content_digest(doc):
            raise ValueError(f"checkpoint {path} failed its content digest "
                             "(torn or tampered)")
        _check_schema(doc)
        return doc

    def latest(self) -> Optional[dict]:
        for path in reversed(self.paths()):
            try:
                return self.load(path)
            except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
                log.warning("skipping unusable checkpoint %s: %s", path, exc)
        return None

    def next_seq(self) -> int:
        """One past the highest sequence already on disk (0 when empty).
        A manager over a non-empty store — a restarted process, or a new
        run sharing a checkpoint directory — must continue the numbering:
        ``latest()`` orders by sequence, so a fresh manager restarting at
        0 would leave a *stale* prior-run checkpoint as the newest."""
        seqs = []
        for path in self.paths():
            stem = os.path.basename(path)[len("checkpoint-"):-len(".json")]
            try:
                seqs.append(int(stem))
            except ValueError:
                continue
        return max(seqs) + 1 if seqs else 0


# -- the manager (the installed global hook) -----------------------------------

class CheckpointManager:
    """Capture policy + store binding the control plane's ``on_tick``
    hook drives.  ``min_interval_ns`` rate-limits captures (0 = capture
    at every destructive step, the lossless default; anything larger
    trades a bounded recovery gap for less write amplification)."""

    def __init__(self, store: CheckpointStore,
                 min_interval_ns: int = 0) -> None:
        self.store = store
        self.min_interval_ns = min_interval_ns
        self.seq = store.next_seq()
        self.captures = 0
        self.skipped = 0
        self.last_path: Optional[str] = None
        self.last_time_ns: Optional[int] = None
        self._dedup = None
        telemetry.reads(self, counters=[
            ("repro_checkpoints_total", "checkpoint documents captured and written",
             (), lambda: self.captures),
        ], gauges=[
            ("repro_checkpoint_last_time_ns",
             "sim timestamp of the newest checkpoint (0 = none yet)",
             (), lambda: self.last_time_ns or 0),
        ])

    def attach_dedup(self, dedup) -> None:
        """Fold the archiver's SequenceDedup books into every capture
        (the exactly-once half of the recovery invariant)."""
        self._dedup = dedup

    def age_ns(self, now_ns: int) -> Optional[int]:
        if self.last_time_ns is None:
            return None
        return max(0, now_ns - self.last_time_ns)

    def on_tick(self, cp) -> None:
        """Called by the control plane after each destructive step, with
        the *calling* control plane as argument."""
        now = cp.sim.now
        if (self.min_interval_ns
                and self.last_time_ns is not None
                and now - self.last_time_ns < self.min_interval_ns):
            self.skipped += 1
            return
        self.capture(cp)

    def capture(self, cp) -> str:
        doc = capture_checkpoint(cp, dedup=self._dedup, seq=self.seq)
        self.last_path = self.store.write(doc)
        self.last_time_ns = doc["time_ns"]
        self.seq += 1
        self.captures += 1
        return self.last_path


def install_manager(m: CheckpointManager) -> CheckpointManager:
    """Make ``m`` the process-wide manager (the ``hooks.checkpoints``
    slot) that control planes built *after this call* bind.  Install
    before constructing the scenario (same ordering contract as
    ``faults.install``)."""
    hooks.checkpoints = m
    return m


def uninstall_manager() -> None:
    hooks.checkpoints = None


def manager() -> Optional[CheckpointManager]:
    return hooks.checkpoints
