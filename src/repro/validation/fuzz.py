"""Seeded scenario fuzzer with automatic shrinking.

``run_seed(seed)`` derives a scenario from the seed, runs it through the
live simulator with the ground-truth oracle attached, and differential-
checks the P4 side against truth.  On failure, ``shrink`` greedily
simplifies the spec — dropping flows, impairments, bursts and flaps,
then halving the duration — re-running after each candidate edit and
keeping it only if the failure persists.  The minimal failing spec is
serialised as a replayable JSON artifact (schema ``repro-validate-v1``)
together with the failing check results, so ``repro-experiments
validate --replay artifact.json`` reproduces the exact failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.validation.checker import ValidationReport
from repro.validation.scenarios import ScenarioSpec

#: Bounded shrink effort: each accepted edit restarts the pass, so cap
#: total candidate runs rather than passes.
MAX_SHRINK_RUNS = 60

#: Optional hook tests/mutation harnesses use to corrupt the monitor
#: before the run — called with the built ValidationRun.
RunHook = Callable[[object], None]


@dataclass
class FuzzOutcome:
    """Result of fuzzing one seed."""

    seed: int
    passed: bool
    spec: ScenarioSpec
    report: ValidationReport
    shrunk_spec: Optional[ScenarioSpec] = None
    shrunk_report: Optional[ValidationReport] = None
    shrink_runs: int = 0
    artifact_path: Optional[Path] = None
    notes: List[str] = field(default_factory=list)

    @property
    def minimal_spec(self) -> ScenarioSpec:
        return self.shrunk_spec if self.shrunk_spec is not None else self.spec

    @property
    def minimal_report(self) -> ValidationReport:
        return (self.shrunk_report if self.shrunk_report is not None
                else self.report)


def run_spec(spec: ScenarioSpec, run_hook: Optional[RunHook] = None) -> ValidationReport:
    """Build, run and check one scenario spec."""
    if run_hook is not None and spec.batched_path:
        # A run hook instruments per-packet objects (the mutation
        # harness patches register methods) — that demands the scalar
        # twin, the same rule the monitor's construction-time gate
        # applies to the provenance tracer and the rate meter.
        spec = spec.clone(batched_path=False)
    run = spec.build()
    if run_hook is not None:
        run_hook(run)
    run.run()
    return run.check()


def run_seed(seed: int, run_hook: Optional[RunHook] = None) -> ValidationReport:
    """Derive the scenario for ``seed``, run it, and check it."""
    return run_spec(ScenarioSpec.from_seed(seed), run_hook=run_hook)


# -- shrinking -----------------------------------------------------------------


def _candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Simpler variants of ``spec``, most aggressive first."""
    out: List[ScenarioSpec] = []
    for attr in ("flows", "losses", "jitters", "reorders", "bursts", "flaps"):
        items = getattr(spec, attr)
        for i in range(len(items)):
            if attr == "flows" and len(items) == 1:
                continue  # keep at least one flow: no traffic, no checks
            cand = spec.clone()
            del getattr(cand, attr)[i]
            out.append(cand)
    if spec.duration_s > 4.0:
        cand = spec.clone(duration_s=round(spec.duration_s / 2, 3))
        cand.flows = [f for f in cand.flows if f.start_s < cand.duration_s]
        for f in cand.flows:
            f.duration_s = round(
                min(f.duration_s, cand.duration_s - f.start_s), 3)
        cand.bursts = [b for b in cand.bursts if b.at_s < cand.duration_s]
        cand.flaps = [fl for fl in cand.flaps if fl.start_s < cand.duration_s]
        if cand.flows:
            out.append(cand)
    return out


def shrink(spec: ScenarioSpec, run_hook: Optional[RunHook] = None,
           max_runs: int = MAX_SHRINK_RUNS):
    """Greedy shrink: keep any simplification that still fails.

    Returns ``(minimal_spec, its_report, runs_used)``; the spec is the
    input spec unchanged if no simplification reproduces the failure.
    """
    current = spec
    current_report: Optional[ValidationReport] = None
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for cand in _candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            report = run_spec(cand, run_hook=run_hook)
            if not report.passed:
                current = cand
                current_report = report
                improved = True
                break  # restart candidate generation from the smaller spec
    if current_report is None:
        current_report = run_spec(current, run_hook=run_hook)
        runs += 1
    return current, current_report, runs


# -- artifacts -----------------------------------------------------------------


def write_artifact(path: Path, spec: ScenarioSpec,
                   report: ValidationReport,
                   capture: Optional[List[dict]] = None) -> Path:
    """Serialise a failing (usually shrunk) scenario as a replayable
    JSON artifact."""
    doc = {
        "schema": "repro-validate-v1",
        "kind": "fuzz-failure",
        "seed": spec.seed,
        "spec": spec.to_jsonable(),
        "report": report.to_jsonable(),
    }
    if capture is not None:
        doc["capture"] = capture
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def load_artifact(path: Path) -> ScenarioSpec:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "repro-validate-v1":
        raise ValueError(f"{path}: unknown artifact schema {doc.get('schema')!r}")
    return ScenarioSpec.from_jsonable(doc["spec"])


def fuzz_seed(
    seed: int,
    artifact_dir: Optional[Path] = None,
    do_shrink: bool = True,
    run_hook: Optional[RunHook] = None,
) -> FuzzOutcome:
    """The full fuzz cycle for one seed: run, and on failure shrink +
    serialise the minimal failing artifact."""
    spec = ScenarioSpec.from_seed(seed)
    report = run_spec(spec, run_hook=run_hook)
    outcome = FuzzOutcome(seed=seed, passed=report.passed,
                          spec=spec, report=report)
    if report.passed:
        return outcome
    if do_shrink:
        shrunk, shrunk_report, runs = shrink(spec, run_hook=run_hook)
        outcome.shrunk_spec = shrunk
        outcome.shrunk_report = shrunk_report
        outcome.shrink_runs = runs
    if artifact_dir is not None:
        outcome.artifact_path = write_artifact(
            Path(artifact_dir) / f"seed-{seed}.json",
            outcome.minimal_spec, outcome.minimal_report,
        )
    return outcome
