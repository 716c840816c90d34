"""A count is kept once: outside ``repro/telemetry/`` nothing writes a
telemetry family except the two sites that observe an instant.

Counters and gauges are reads of tallies the components keep
(``telemetry.reads``); only a value that exists at one sim-time instant
is observed where it happens, through a handle cached in a ``self._tel_*``
attribute.  This walks every product module's syntax tree and pins that
structure: the ``_tel_*`` holders, the writes through them (an ``inc``,
``observe``, ``observe_n`` or ``set`` on a holder or on a local bound
from one), that every family handle lands in a holder, and that
``telemetry.enabled()`` is asked only where a holder is bound.  Wall time
has one observer, the phase profiler: only the modules that charge it
read a clock.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
WRITES = {"inc", "observe", "observe_n", "set"}
FAMILIES = {"counter", "gauge", "histogram"}

#: module -> {holder: writes through it}.
PUSH_SITES = {
    "netsim/engine.py": {"_tel_depth": ["observe"]},
    "perfsonar/archiver.py": {"_tel_fields": ["observe_n"]},
}

#: The clock functions of :mod:`time`.
CLOCKS = {"perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
          "monotonic", "monotonic_ns", "time", "time_ns", "thread_time",
          "thread_time_ns"}

#: module -> the clocks it reads: the profiler itself, the engine's
#: profiled drain loop, and the pipeline's ``p4.process`` cell (charged
#: per packet, or per flush from the batched kernel's two reads).
CLOCK_READERS = {
    "telemetry/profiling.py": {"perf_counter_ns"},
    "netsim/engine.py": {"perf_counter_ns"},
    "p4/pipeline.py": {"perf_counter_ns"},
    "core/batch.py": {"perf_counter_ns"},
}


def _holder(node, aliases):
    """The ``_tel_*`` holder an expression reaches, if any."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr.startswith("_tel_"):
            return sub.attr
        if isinstance(sub, ast.Name) and sub.id in aliases:
            return aliases[sub.id]
    return None


def _scan(tree):
    """(holders named, writes through them, unheld family handles,
    collectors added, ``telemetry.enabled()`` calls) of one module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            holder = _holder(node.value, {})
            for target in node.targets:
                if holder and isinstance(target, ast.Name):
                    aliases[target.id] = holder
    held = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr.startswith("_tel_")
                for t in node.targets):
            held.update(id(sub) for sub in ast.walk(node.value))
    holders = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_tel_")}
    writes, unheld, collectors, enabled = Counter(), [], 0, 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name, receiver = node.func.attr, node.func.value
        if name in WRITES:
            holder = _holder(receiver, aliases)
            if holder:
                writes[holder, name] += 1
        elif name in FAMILIES and "telemetry" in ast.unparse(receiver):
            if id(node) not in held:
                unheld.append(node.lineno)
        elif name == "add_collector":
            collectors += 1
        elif name == "enabled" and ast.unparse(receiver) == "telemetry":
            enabled += 1
    return holders, writes, unheld, collectors, enabled


def _modules(telemetry=False):
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if telemetry or not rel.startswith("telemetry/"):
            yield rel, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_two_instants_are_pushed():
    found = {}
    for rel, tree in _modules():
        holders, writes, unheld, collectors, enabled = _scan(tree)
        allowed = PUSH_SITES.get(rel, {})
        assert holders <= set(allowed), f"{rel}: _tel_* beyond the push holders"
        assert not unheld, f"{rel}:{unheld}: a family handle outside a _tel_* holder"
        assert not collectors, f"{rel}: a collector outside telemetry.reads"
        assert not enabled or allowed, f"{rel}: telemetry.enabled() with no push site"
        for (holder, name), n in sorted(writes.items()):
            found.setdefault(rel, {}).setdefault(holder, []).extend([name] * n)
    assert found == PUSH_SITES
    assert sum(len(names) for sites in found.values() for names in sites.values()) == 2


def test_only_the_profiled_modules_read_a_clock():
    found = {}
    for rel, tree in _modules(telemetry=True):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in CLOCKS
                    and ast.unparse(node.value) == "time"):
                found.setdefault(rel, set()).add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                found.setdefault(rel, set()).update(
                    a.name for a in node.names if a.name in CLOCKS)
    assert found == CLOCK_READERS
