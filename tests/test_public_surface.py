"""Guards that keep deleted surface from growing back.

The observer stack:

``repro.telemetry`` exports what another package reaches through it and
nothing else (every other user imports the submodule), and importing the
CLI starts no server machinery: no ``http.server`` chain in
``sys.modules``, and the stack sampler's file is the only one under
``src/repro/`` that imports ``threading`` — one thread touches the
registry, the simulator's.

The P4 model: ``P4Program`` registers no extern kind the monitor
program does not instantiate, and the names ``state_snapshot`` keys the
data-plane state by — hashed by ``state_digest``, stored by checkpoints —
are pinned.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from repro import telemetry
from repro.core.config import MonitorConfig
from repro.core.monitor import P4Monitor

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


def _full_program():
    return P4Monitor(MonitorConfig(histograms_enabled=True,
                                   forensics_enabled=True)).program


def test_every_extern_kind_the_registry_holds_is_instantiated():
    kinds = {attr: table for attr, table in vars(_full_program()).items()
             if isinstance(table, dict)}
    assert kinds and all(kinds.values()), (
        f"registered by no stage: {[a for a, t in kinds.items() if not t]}")


def test_state_snapshot_keys_are_pinned():
    registers = (
        "eack_sig eack_ts flight_high_ack flight_high_seq flow_bytes "
        "flow_ce_marks flow_dport flow_dst flow_fin flow_key flow_last "
        "flow_pkts flow_qdelay flow_qdelay_max flow_rwnd flow_sport flow_src "
        "flow_start mb_peak mb_pkts mb_start mb_state pkt_loss prev_seq "
        "q_stash_sig q_stash_ts rtt rtt_count").split()
    pairs = ("histogram/qdepth_hist", "histogram/rtt_hist",
             "time_window/time_windows")
    assert sorted(_full_program().state_snapshot()) == sorted(
        [f"{pair}/{part}" for pair in pairs
         for part in ("active", "bank0", "bank1")]
        + [f"register/{name}" for name in registers]
        + ["sketch/long_flow_cms"])
