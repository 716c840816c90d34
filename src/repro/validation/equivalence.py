"""Scalar ↔ batched path equivalence harness.

The batched kernel (:mod:`repro.core.batch`) is a construction-time twin
of the scalar per-packet pipeline: same scenario in, bit-identical
data-plane state and report streams out.  :func:`compare_paths` enforces
that contract end to end — it builds one scenario twice (``batched_path``
True/False), runs both, and compares

- the SHA-256 :meth:`~repro.p4.runtime.P4Program.state_digest`,
- every register / sketch / histogram-bank / time-window-bank array in
  :meth:`~repro.p4.runtime.P4Program.state_snapshot`,
- the two runs' archives, index by index and document by document
  (every report the control plane shipped: flow samples per metric
  class, jitter, aggregates, microbursts, terminations, limiter
  reports, histogram and forensics reports, alerts),
- the sequence of every digest the program emits, across streams (a
  kernel that moved a microburst past a termination would leave each
  stream equal on its own),
- the differential-oracle verdicts of both runs (overall and per check),
- the op tallies observers read: ``RegisterArray.ops`` per register,
  sketch ``updates``/``queries``, digest ``emitted``/``dropped``, and
- when telemetry is enabled, what each run added to
  ``repro_p4_stage_packets_total`` and ``repro_p4_stage_drops_total``
  (the kernel's per-flush tallies against the scalar twin's per-packet
  ones).

Used by ``tests/validation/test_batch_equivalence.py`` and by
``repro-experiments validate --compare-paths``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.validation.scenarios import ScenarioSpec, ValidationRun

#: The pipeline's telemetry families (counter value per label set).
_TEL_FAMILIES = ("repro_p4_stage_packets_total", "repro_p4_stage_drops_total")


@dataclass
class PathComparison:
    """Outcome of one batched-vs-scalar differential run."""

    seed: int
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    batched_run: Optional[ValidationRun] = None
    scalar_run: Optional[ValidationRun] = None
    batched_report: Optional[object] = None
    scalar_report: Optional[object] = None

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def oracle_passed(self) -> bool:
        """Both paths green against ground truth (independent of whether
        they agree with each other)."""
        return bool(self.batched_report and self.batched_report.passed
                    and self.scalar_report and self.scalar_report.passed)

    def summary(self) -> str:
        head = (f"seed {self.seed}: "
                f"{'EQUIVALENT' if self.passed else 'DIVERGED'} "
                f"({self.checks} checks)")
        if self.mismatches:
            head += "\n" + "\n".join(f"  {m}" for m in self.mismatches)
        return head


def _compare_stream(cmp: PathComparison, name: str,
                    batched: list, scalar: list) -> None:
    cmp.checks += 1
    if len(batched) != len(scalar):
        cmp.mismatches.append(
            f"{name}: {len(batched)} records batched vs {len(scalar)} scalar")
        return
    for i, (b, s) in enumerate(zip(batched, scalar)):
        if b != s:
            cmp.mismatches.append(f"{name}[{i}]: {b!r} != {s!r}")
            return


def _documents(store, index: str) -> List[dict]:
    """An index's documents in write order, ``_id`` left out."""
    return [{k: v for k, v in doc.items() if k != "_id"} for doc in store.search(index)]


def _record_digests(run: ValidationRun) -> list:
    """Wrap every digest's ``emit`` on the built run: the returned list
    logs ``(name, payload)`` per message, in emission order."""
    seen: list = []
    for digest in run.scenario.monitor.program.digests.values():
        def record(emit=digest.emit, name=digest.name, /, **payload):
            seen.append((name, payload))
            emit(**payload)
        digest.emit = record
    return seen


def _op_tallies(run: ValidationRun) -> Dict[str, int]:
    """The plain-int tallies telemetry and the profiler pull."""
    return {f"{family}[{name}]" + "".join(f".{label}" for label in labels): n
            for (family, name, *labels), n
            in run.scenario.monitor.program.tallies().items()}


def _pipeline_telemetry() -> Dict[tuple, float]:
    """(family, label values) -> total for the pipeline's families, as
    of a collect.  Both runs feed one process-global registry under the
    same labels, so callers take a run's contribution as a difference."""
    telemetry.registry().collect()
    out: Dict[tuple, float] = {}
    for name in _TEL_FAMILIES:
        fam = telemetry.registry().get(name)
        if fam is None:
            continue
        for labels, child in fam.series():
            out[(name, labels)] = child.value
    return out


def _compare_counts(cmp: PathComparison, batched: dict, scalar: dict) -> None:
    for key in sorted(set(batched) | set(scalar), key=str):
        cmp.checks += 1
        if batched.get(key, 0) != scalar.get(key, 0):
            cmp.mismatches.append(
                f"{key}: {batched.get(key, 0)} batched vs "
                f"{scalar.get(key, 0)} scalar")


def compare_paths(spec: ScenarioSpec,
                  run_hooks: Optional[Tuple] = None) -> PathComparison:
    """Run ``spec`` through both hot paths and differential-compare them.

    ``run_hooks`` optionally carries ``(batched_hook, scalar_hook)``
    callables applied to the built :class:`ValidationRun` before it runs
    — the mutation suite uses the batched hook to drop one kernel
    unit's register tally while the scalar reference stays clean.
    """
    b_hook, s_hook = run_hooks if run_hooks is not None else (None, None)
    runs = {}
    reports = {}
    emitted = {}
    tallies = {}
    tel = {}
    for batched, hook in ((True, b_hook), (False, s_hook)):
        tel_before = _pipeline_telemetry()
        run = spec.clone(batched_path=batched).build()
        if batched and run.scenario.monitor.kernel is None:
            raise RuntimeError(
                "batched path did not engage — the provenance tracer is "
                "active in this process (the rate meter, batched_path=False "
                "and a monitor without a simulator also bind the scalar "
                "path)")
        emitted[batched] = _record_digests(run)
        if hook is not None:
            hook(run)
        run.run()
        reports[batched] = run.check()
        runs[batched] = run
        tallies[batched] = _op_tallies(run)
        tel[batched] = {key: total - tel_before.get(key, 0)
                        for key, total in _pipeline_telemetry().items()}
    cmp = PathComparison(seed=spec.seed,
                         batched_run=runs[True], scalar_run=runs[False],
                         batched_report=reports[True],
                         scalar_report=reports[False])

    # Whole-state digest first: one hash that covers every register bit.
    b_prog = runs[True].scenario.monitor.program
    s_prog = runs[False].scenario.monitor.program
    cmp.checks += 1
    digests_equal = b_prog.state_digest() == s_prog.state_digest()
    if not digests_equal:
        cmp.mismatches.append("state_digest: sha256 differs")

    # Array-level localisation (also the detail when the digest differs).
    b_state = b_prog.state_snapshot()
    s_state = s_prog.state_snapshot()
    cmp.checks += 1
    if set(b_state) != set(s_state):
        cmp.mismatches.append(
            f"state_snapshot keys differ: "
            f"{sorted(set(b_state) ^ set(s_state))}")
    else:
        for key in sorted(b_state):
            cmp.checks += 1
            b_arr, s_arr = b_state[key], s_state[key]
            if b_arr.shape != s_arr.shape:
                cmp.mismatches.append(
                    f"{key}: shape {b_arr.shape} vs {s_arr.shape}")
            elif not np.array_equal(b_arr, s_arr):
                bad = np.flatnonzero(
                    np.ravel(b_arr) != np.ravel(s_arr))[:4].tolist()
                cmp.mismatches.append(
                    f"{key}: {len(bad)}+ cells differ (first flat "
                    f"indices {bad})")

    # What each run archived.  ``_id``s number the documents of every
    # index together, so they are left out: one extra document would
    # shift every later one's; the digest sequence pins cross-stream order.
    b_store = runs[True].scenario.archiver.store
    s_store = runs[False].scenario.archiver.store
    for index in sorted(set(b_store.indices) | set(s_store.indices)):
        _compare_stream(cmp, index, _documents(b_store, index),
                        _documents(s_store, index))
    _compare_stream(cmp, "digest_sequence", emitted[True], emitted[False])

    # Observer-facing tallies (and, under telemetry, the pipeline cells).
    _compare_counts(cmp, tallies[True], tallies[False])
    _compare_counts(cmp, tel[True], tel[False])

    # Oracle verdicts: both reports must agree check-for-check.
    cmp.checks += 1
    if reports[True].passed != reports[False].passed:
        cmp.mismatches.append(
            f"oracle verdict: batched passed={reports[True].passed} "
            f"scalar passed={reports[False].passed}")
    b_checks = {(r.metric, r.subject): r.passed
                for r in reports[True].results}
    s_checks = {(r.metric, r.subject): r.passed
                for r in reports[False].results}
    cmp.checks += 1
    if b_checks != s_checks:
        diff = [k for k in (set(b_checks) | set(s_checks))
                if b_checks.get(k) != s_checks.get(k)][:4]
        cmp.mismatches.append(f"oracle checks differ: {diff}")
    return cmp
