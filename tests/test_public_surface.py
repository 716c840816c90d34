"""The two guards that keep the observer stack from growing back.

``repro.telemetry`` exports what another package reaches through it and
nothing else (every other user imports the submodule), and importing the
CLI starts no server machinery: no ``http.server`` chain in
``sys.modules``, and the stack sampler's file is the only one under
``src/repro/`` that imports ``threading`` — one thread touches the
registry, the simulator's.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from repro import telemetry

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro" / "telemetry"


def test_every_telemetry_export_is_reached_through_the_package():
    outside = "\n".join(
        path.read_text()
        for top in ("src", "examples", "bench", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        if PACKAGE not in path.parents)
    unreached = [
        name for name in telemetry.__all__
        if not re.search(rf"\btelemetry\.{name}\b", outside)
        and not re.search(rf"from repro\.telemetry import [^\n]*\b{name}\b",
                          outside)]
    assert not unreached, (
        f"exported by repro.telemetry but reached through it by nobody "
        f"outside the package: {unreached}")


def test_importing_the_cli_loads_no_server_and_starts_no_thread_user():
    probe = ("import sys, repro.cli; "
             "print([m for m in ('http.server', 'socketserver', 'ssl', "
             "'email') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out.strip() == "[]"

    threaded = sorted(
        str(path.relative_to(SRC)) for path in (SRC / "repro").rglob("*.py")
        if any(isinstance(node, (ast.Import, ast.ImportFrom))
               and "threading" in ([a.name for a in node.names]
                                   + [getattr(node, "module", None)])
               for node in ast.walk(ast.parse(path.read_text()))))
    assert threaded == ["repro/telemetry/profiling.py"]
