"""A seeded run's telemetry snapshot is a function of the run alone.

Telemetry counts and observes sim-time instants; wall time is the phase
profiler's.  So two fresh processes running the same seeded ``stats``
print the same JSON snapshot, byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ARGS = ["stats", "--duration", "5", "--seed", "3", "--telemetry-format", "json"]


def _stats() -> bytes:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *ARGS], capture_output=True,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


def test_two_seeded_stats_runs_print_the_same_snapshot():
    first, second = _stats(), _stats()
    assert json.loads(first)["metrics"]
    assert first == second
