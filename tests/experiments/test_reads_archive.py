"""The paper runs read what perfSONAR archived.

Every figure, table and ablation takes its control-plane reports from
the run's archive (``Scenario.archiver``, ``monitor_series``,
``microbursts``, ``verdict``), as a Grafana panel over OpenSearch would.
Flow identity (``monitored_flow``, ``cp.flows``) and the data-plane
registers stay where they are.  An ``ast`` scan of ``repro/experiments``
pins it: no module reads a control plane's report logs or its old
read helpers.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.experiments.common as common

#: Report logs and read helpers a control plane offers and no paper run
#: may read (``alerts.history`` is matched on its own).
CONTROL_PLANE_READS = {"flow_samples", "aggregate_samples", "microbursts",
                       "series", "metric_values"}


def _control_plane(node: ast.AST, names: set) -> bool:
    """``<anything>.control_plane``, or a name bound to a control plane."""
    if isinstance(node, ast.Attribute):
        return node.attr == "control_plane"
    return isinstance(node, ast.Name) and node.id in names


def control_plane_reads(tree: ast.AST) -> list:
    """``line:read`` of every forbidden read off a control plane."""
    names = {"cp", "control_plane"} | {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and _control_plane(node.value, set())
        for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in CONTROL_PLANE_READS and _control_plane(node.value, names):
            found.append(f"{node.lineno}:{node.attr}")
        elif (node.attr == "history" and isinstance(node.value, ast.Attribute)
              and node.value.attr == "alerts"
              and _control_plane(node.value.value, names)):
            found.append(f"{node.lineno}:alerts.history")
    return found


def test_the_scan_sees_every_control_plane_read():
    tree = ast.parse(
        "tracked = scenario.control_plane\n"
        "cp.flow_samples[kind]\n"
        "result9.scenario.control_plane.aggregate_samples\n"
        "tracked.microbursts\n"
        "scenario.control_plane.alerts.history\n"
        "self.control_plane.series(kind, fid)\n"
        "control_plane.metric_values(kind, fid)\n"
        # What the archive and a result offer is not a control-plane read.
        "scenario.archiver.series('p4_rtt', fid)\n"
        "scenario.microbursts()\n"
        "result.microbursts\n"
        "scenario.control_plane.flows\n")
    assert sorted(control_plane_reads(tree)) == [
        "2:flow_samples", "3:aggregate_samples", "4:microbursts",
        "5:alerts.history", "6:series", "7:metric_values"]


def test_experiments_read_no_control_plane_report():
    package = Path(common.__file__).parent
    found = [f"{path.name}:{read}"
             for path in sorted(package.glob("*.py"))
             for read in control_plane_reads(ast.parse(path.read_text()))]
    assert found == []
