"""Source path -> layer map, and the fold of a cProfile run into layers.

Every Python function boundary is a span; the fold keeps only layer
boundaries.  A layer's self time is the summed ``tottime`` of its
functions, so it is by construction the layer's time minus its callees'.
The profile is taken with ``builtins=False``: C and numpy time stays with
the calling Python function, so ``core.batch`` owns its numpy work.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: The program's layers, then the benchmark's own driver code.
LAYERS = (
    "netsim.engine", "netsim.link", "netsim.packet", "netsim.tap", "tcp",
    "p4", "core.stages", "core.batch", "core.control_plane",
    "perfsonar.logstash", "perfsonar.archive", "telemetry", "resilience",
    "other", "harness",
)

# Keys are paths relative to src/repro; a key ending in "/" covers a
# whole directory.  netsim/, core/ and the package root are split across
# layers, so their files are listed one by one: a new module there has no
# entry and fails bench/test_smoke.py instead of landing in "other".
LAYER_OF: Dict[str, str] = {
    "netsim/engine.py": "netsim.engine",
    "netsim/packet.py": "netsim.packet",
    "netsim/tap.py": "netsim.tap",
    "netsim/__init__.py": "netsim.link",
    "netsim/link.py": "netsim.link",
    "netsim/switch.py": "netsim.link",
    "netsim/host.py": "netsim.link",
    "netsim/netem.py": "netsim.link",
    "netsim/topology.py": "netsim.link",
    "netsim/observer.py": "netsim.link",
    "netsim/pcap.py": "netsim.link",
    "netsim/trace.py": "netsim.link",
    "netsim/units.py": "netsim.link",
    "tcp/": "tcp",
    "p4/": "p4",
    "core/__init__.py": "core.stages",
    "core/monitor.py": "core.stages",
    "core/flow_table.py": "core.stages",
    "core/rtt.py": "core.stages",
    "core/limiter.py": "core.stages",
    "core/queue_monitor.py": "core.stages",
    "core/microburst.py": "core.stages",
    "core/rate_meter.py": "core.stages",
    "core/config.py": "core.stages",
    "core/batch.py": "core.batch",
    "core/control_plane.py": "core.control_plane",
    "core/alerts.py": "core.control_plane",
    "core/reports.py": "core.control_plane",
    "core/histograms.py": "core.control_plane",
    "core/forensics.py": "core.control_plane",
    "core/replay.py": "core.control_plane",
    "core/stats.py": "core.control_plane",
    "perfsonar/logstash.py": "perfsonar.logstash",
    "perfsonar/": "perfsonar.archive",
    "telemetry/": "telemetry",
    "resilience/": "resilience",
    "validation/": "other",
    "experiments/": "other",
    "mmwave/": "other",
    "__init__.py": "other",
    "_version.py": "other",
    "cli.py": "other",
    "viz.py": "other",
}


def layer_of_source(relpath: str) -> Optional[str]:
    """Layer of a path relative to src/repro, or None when unmapped.
    An exact file entry wins over its directory's entry."""
    relpath = relpath.replace(os.sep, "/")
    folder, slash, _ = relpath.partition("/")
    return LAYER_OF.get(relpath) or (LAYER_OF.get(folder + "/") if slash else None)


def layer_of_file(filename: str) -> str:
    """Layer of any code object's file: the program's modules by the map,
    the benchmark's own files as ``harness``, everything else (stdlib,
    numpy's Python layer) as ``other``."""
    if filename.startswith(SRC_ROOT + os.sep):
        layer = layer_of_source(os.path.relpath(filename, SRC_ROOT))
        if layer is None:
            raise KeyError(f"{filename} has no layer in bench/layers.py")
        return layer
    if filename.startswith(BENCH_DIR + os.sep):
        return "harness"
    return "other"


def fold(profile: cProfile.Profile) -> Tuple[Dict[str, float], Dict[str, int], int]:
    """(self seconds per layer, calls per layer, BatchKernel.flush calls)."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    flushes = 0
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin; absent with builtins=False
            continue
        layer = layer_of_file(code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if layer == "core.batch" and code.co_name == "flush":
            flushes += entry.callcount
    return self_s, calls, flushes
