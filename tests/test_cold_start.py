"""What a cold start imports, and how a switched-off observer costs none.

Every ``repro`` package resolves the names it re-exports on first use
(PEP 562), the four process-wide observer slots live in
:mod:`repro.telemetry.hooks`, which imports nothing from ``repro``, and
an optional extractor or extern is imported where it is built.  So a fresh
interpreter that builds the monitor, its control plane and an archiver,
or a whole ``Scenario``, imports no module of a feature it did not turn
on.  The other half of the contract: a switch turned on before a
component is built binds it, and one turned on after does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.resilience import checkpoint, faults
from repro.resilience.schedule import FaultSchedule
from repro.telemetry import profiling, provenance

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules of features that are off unless something turns them on.
OFF_BY_DEFAULT = [
    "repro.telemetry.provenance", "repro.telemetry.profiling",
    "repro.telemetry.export", "repro.telemetry.metrics",
    *(f"repro.resilience.{name}" for name in (
        "checkpoint", "schedule", "delivery", "breaker", "watchdog", "supervisor")),
    "repro.core.histograms", "repro.core.forensics",
    "repro.p4.histogram", "repro.p4.time_windows",
    "repro.validation.fuzz", "repro.validation.scenarios", "repro.validation.capture",
    "repro.tcp.bbr", "repro.netsim.pcap", "repro.netsim.trace",
]

_BUILD = {
    "monitor": """
from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.perfsonar.archiver import Archiver
sim = Simulator()
monitor = P4Monitor(MonitorConfig(**FLAGS), sim=sim)
archiver = Archiver()
MonitorControlPlane(sim, monitor, report_sink=archiver.sink).start()
""",
    "scenario": """
from repro.experiments.common import Scenario, ScenarioConfig
Scenario(ScenarioConfig())
""",
}


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


@pytest.mark.parametrize("build", sorted(_BUILD))
def test_a_cold_start_imports_no_switched_off_feature(build):
    loaded = json.loads(_fresh(
        "FLAGS = {}\n" + _BUILD[build]
        + "import json, sys\nprint(json.dumps(sorted(sys.modules)))"))
    assert "repro.core.monitor" in loaded
    assert [name for name in OFF_BY_DEFAULT if name in loaded] == []


def _telemetry(config, tmp_path):
    telemetry.reset()
    telemetry.enable()
    return telemetry.disable


def _tracer(config, tmp_path):
    provenance.enable()
    return provenance.disable


def _profiler(config, tmp_path):
    profiling.enable()
    return profiling.disable


def _injector(config, tmp_path):
    faults.install(faults.FaultInjector(FaultSchedule()))
    return faults.uninstall


def _checkpoints(config, tmp_path):
    checkpoint.install_manager(checkpoint.CheckpointManager(
        checkpoint.CheckpointStore(str(tmp_path))))
    return checkpoint.uninstall_manager


def _flag(name):
    def turn_on(config, tmp_path):
        setattr(config, name, True)
        return lambda: None
    return turn_on


def _reads_of(cp):
    """The registry's reads of ``cp``'s tallies, or None."""
    from repro.telemetry.metrics import TallyReads
    return next((fn for fn in telemetry.registry()._collectors
                 if isinstance(fn, TallyReads) and fn.owner is cp), None)


#: switch -> (turn it on; returns how to turn it off, what a control
#: plane holds of it: None while unbound)
SWITCHES = {
    "telemetry": (_telemetry, _reads_of),
    "tracer": (_tracer, lambda cp: cp._trace),
    "profiler": (_profiler, lambda cp: cp._prof),
    "injector": (_injector, lambda cp: cp._faults),
    "checkpoint manager": (_checkpoints, lambda cp: cp._ckpt),
    "histograms_enabled": (_flag("histograms_enabled"), lambda cp: cp.histograms),
    "forensics_enabled": (_flag("forensics_enabled"), lambda cp: cp.forensics),
}


def _control_plane(config: MonitorConfig) -> MonitorControlPlane:
    sim = Simulator()
    return MonitorControlPlane(sim, P4Monitor(config, sim=sim))


@pytest.mark.parametrize("switch", SWITCHES)
def test_a_switch_binds_what_is_built_after_it_and_nothing_before(switch, tmp_path):
    turn_on, held = SWITCHES[switch]
    config = MonitorConfig()
    before = _control_plane(config)
    turn_off = turn_on(config, tmp_path)
    try:
        after = _control_plane(config)
        bound = held(before), held(after)
    finally:
        turn_off()
        telemetry.reset()
    assert bound[0] is None
    assert bound[1] is not None


@pytest.mark.parametrize("switch, modules", [
    ("telemetry", ["repro.telemetry.metrics"]),
    ("histograms_enabled", ["repro.core.histograms", "repro.p4.histogram"]),
    ("forensics_enabled", ["repro.core.forensics", "repro.p4.time_windows"]),
])
def test_turning_a_feature_on_is_what_imports_it(switch, modules):
    turn_on = ("from repro import telemetry\ntelemetry.enable()\nFLAGS = {}\n"
               if switch == "telemetry" else f"FLAGS = {{{switch!r}: True}}\n")
    code = (turn_on + _BUILD["monitor"]
            + f"import sys\nprint([m in sys.modules for m in {modules!r}])")
    assert _fresh(code).strip() == repr([True] * len(modules))


_PACKAGES = ["core", "experiments", "mmwave", "netsim", "p4", "perfsonar",
             "resilience", "tcp", "telemetry", "validation"]


@pytest.mark.parametrize("package", _PACKAGES)
def test_a_package_resolves_its_surface_on_first_use(package):
    """In a fresh interpreter ``dir()`` lists every ``__all__`` name before
    any is used, a star import binds them all, each resolves as an
    attribute, and so does each submodule; an unknown name is still an
    ``AttributeError``."""
    report = json.loads(_fresh(f"""
import importlib, json, pkgutil, types
pkg = importlib.import_module("repro.{package}")
names = list(pkg.__all__)
undirected = [n for n in names if n not in dir(pkg)]
scope = {{}}
exec("from repro.{package} import *", scope)
unstarred = [n for n in names if n not in scope]
unresolved = [n for n in names if getattr(pkg, n, None) is not scope.get(n)]
subs = [m.name for m in pkgutil.iter_modules(pkg.__path__)]
nonmodules = [s for s in subs if not isinstance(getattr(pkg, s), types.ModuleType)]
try:
    getattr(pkg, "no_such_name")
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps(dict(names=len(names), subs=len(subs), unresolved=unresolved,
                      undirected=undirected, unstarred=unstarred,
                      nonmodules=nonmodules, missing=missing)))
"""))
    assert report["names"] and report["subs"]
    assert report == dict(report, unresolved=[], undirected=[], unstarred=[],
                          nonmodules=[], missing="AttributeError")


def test_a_submodule_is_an_attribute_of_a_freshly_imported_package():
    assert _fresh("import repro.netsim\nprint(repro.netsim.units.NS_PER_S)").strip() \
        == "1000000000"


def test_a_restore_with_telemetry_off_builds_no_registry():
    """A restored component rebases its counters only in a registry that
    exists, so crash recovery with telemetry off stays as dark as a cold
    start: no registry is built and no metric model imported."""
    out = _fresh("""
from repro import telemetry
from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.resilience.checkpoint import capture_checkpoint, restore_control_plane
sim = Simulator()
cp = MonitorControlPlane(sim, P4Monitor(MonitorConfig(), sim=sim))
restore_control_plane(cp, capture_checkpoint(cp))
import sys
print(["repro.telemetry.metrics" in sys.modules, telemetry._registry])
""")
    assert out.strip() == "[False, None]"
