"""Differential validation of the P4 measurement plane.

The paper's claim is that data-plane *estimates* — eACK-matched RTT,
sequence-regression loss, TAP-pair queue delay, count-min long-flow
detection — track ground truth closely enough to feed perfSONAR.  This
package makes that claim continuously testable:

- :mod:`repro.validation.oracle` — exact path truth from the netsim
  event stream, plus what Algorithm 1 should measure, taken from the
  product's scalar stages run with one register cell per flow (so a
  stage bug is caught by ``--compare-paths`` and the path-truth checks,
  not by the checks that read that reference);
- :mod:`repro.validation.tolerances` — the declared tolerance per metric;
- :mod:`repro.validation.checker` — runs a scenario through both paths
  and compares register/report values against oracle truth;
- :mod:`repro.validation.scenarios` — seeded, JSON-serialisable scenario
  specs (topology + workload + impairments) and their assembly;
- :mod:`repro.validation.capture` — TAP mirror-stream recording and the
  replay-artifact serialisation;
- :mod:`repro.validation.fuzz` — the seeded scenario fuzzer with
  automatic shrinking to a minimal failing artifact.

See docs/validation.md for oracle semantics and the tolerance table.
"""

from repro import _lazy_exports

_EXPORTS = {
    "CheckResult": ".checker",
    "DifferentialChecker": ".checker",
    "ValidationReport": ".checker",
    "CopyRecorder": ".capture",
    "FlowTruth": ".oracle",
    "GroundTruthOracle": ".oracle",
    "ScenarioSpec": ".scenarios",
    "ValidationRun": ".scenarios",
    "TOLERANCES": ".tolerances",
    "Tolerance": ".tolerances",
    "FuzzOutcome": ".fuzz",
    "fuzz_seed": ".fuzz",
    "run_seed": ".fuzz",
    "run_spec": ".fuzz",
    "shrink": ".fuzz",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
