"""Profiler exports: collapsed stacks and phase reports.

The sampler (:class:`repro.telemetry.profiling.StackSampler`) accumulates
root→leaf stack tuples with hit counts.  This module writes them as
**collapsed stacks** — one ``frame;frame;frame count`` line per unique
stack, the input format of `flamegraph.pl`, inferno and
https://speedscope.app alike.

Phase reports are written as JSON (``repro-profile-v1``) next to them.
``load_collapsed`` is the validating reader the writer's round-trip
tests compare against — mirroring ``events_from_perfetto`` in traceviz.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "collapsed_stacks",
    "write_collapsed",
    "load_collapsed",
    "write_phase_report",
]


def collapsed_stacks(samples: Dict[Tuple[str, ...], int]) -> str:
    """Collapsed-stacks text: ``root;child;leaf N`` per unique stack.

    Frame names have ``;`` replaced (it is the separator) and lines are
    sorted for deterministic output.
    """
    lines = []
    for stack, count in samples.items():
        if not stack:
            continue
        lines.append(";".join(f.replace(";", ",") for f in stack)
                     + f" {count}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def write_collapsed(path, samples: Dict[Tuple[str, ...], int]) -> int:
    """Write collapsed stacks to ``path``; returns unique-stack count."""
    text = collapsed_stacks(samples)
    with open(path, "w") as fh:
        fh.write(text)
    return sum(1 for line in text.splitlines() if line)


def load_collapsed(path) -> List[Tuple[Tuple[str, ...], int]]:
    """Validating reader: parse a collapsed file back to (stack, count).

    Raises ``ValueError`` on malformed lines.
    """
    out: List[Tuple[Tuple[str, ...], int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            stack_s, sep, count_s = line.rpartition(" ")
            if not sep or not count_s.isdigit() or not stack_s:
                raise ValueError(f"{path}:{lineno}: malformed collapsed "
                                 f"line: {line!r}")
            out.append((tuple(stack_s.split(";")), int(count_s)))
    return out


def write_phase_report(path, report) -> dict:
    """Persist a :class:`~repro.telemetry.profiling.PhaseReport` as JSON."""
    doc = report.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc
