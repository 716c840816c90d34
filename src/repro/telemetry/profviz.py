"""Profiler exports: collapsed stacks, speedscope JSON, phase reports.

The sampler (:class:`repro.telemetry.profiling.StackSampler`) accumulates
root→leaf stack tuples with hit counts.  This module turns them into the
two interchange formats flamegraph tooling expects:

- **collapsed stacks** — one ``frame;frame;frame count`` line per unique
  stack, the `flamegraph.pl` / inferno input format;
- **speedscope JSON** — the https://speedscope.app "sampled" profile
  schema (shared frame table + per-sample frame-index lists with
  weights), which renders as an interactive flamegraph in a browser.

Phase reports are written as JSON (``repro-profile-v1``) next to them.
``load_speedscope``/``load_collapsed`` are the validating readers
``tests/test_cli.py`` uses to assert artifacts are non-empty and
well-formed — mirroring ``events_from_perfetto`` in traceviz.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = [
    "collapsed_stacks",
    "write_collapsed",
    "load_collapsed",
    "speedscope_document",
    "write_speedscope",
    "load_speedscope",
    "write_phase_report",
]

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


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

    Raises ``ValueError`` on malformed lines — used by the CI smoke job.
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


def speedscope_document(samples: Dict[Tuple[str, ...], int],
                        name: str = "repro profile",
                        interval_s: float = 0.005) -> dict:
    """Build a speedscope "sampled" profile document.

    Each unique stack becomes one sample whose weight is its hit count
    times the sampling interval (unit: seconds) — speedscope renders
    identical adjacent samples merged anyway, so collapsing up front
    keeps files small without changing the flamegraph.
    """
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    sample_rows: List[List[int]] = []
    weights: List[float] = []
    for stack, count in sorted(samples.items()):
        if not stack:
            continue
        row = []
        for frame in stack:
            idx = frame_index.get(frame)
            if idx is None:
                idx = frame_index[frame] = len(frames)
                frames.append({"name": frame})
            row.append(idx)
        sample_rows.append(row)
        weights.append(count * interval_s)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": sample_rows,
            "weights": weights,
        }],
    }


def write_speedscope(path, samples: Dict[Tuple[str, ...], int],
                     name: str = "repro profile",
                     interval_s: float = 0.005) -> dict:
    doc = speedscope_document(samples, name=name, interval_s=interval_s)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def load_speedscope(path) -> dict:
    """Validating reader for speedscope files (CI smoke + tests).

    Checks the structural invariants a renderer relies on: schema URL,
    a sampled profile, samples/weights the same length, and every frame
    index inside the shared frame table.  Returns the parsed document.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        raise ValueError(f"{path}: not a speedscope document "
                         f"($schema={doc.get('$schema')!r})")
    profiles = doc.get("profiles") or []
    if not profiles:
        raise ValueError(f"{path}: no profiles")
    frames = (doc.get("shared") or {}).get("frames") or []
    for prof in profiles:
        if prof.get("type") != "sampled":
            raise ValueError(f"{path}: profile type {prof.get('type')!r} "
                             "(expected 'sampled')")
        samples = prof.get("samples") or []
        weights = prof.get("weights") or []
        if len(samples) != len(weights):
            raise ValueError(f"{path}: {len(samples)} samples vs "
                             f"{len(weights)} weights")
        for row in samples:
            for idx in row:
                if not 0 <= idx < len(frames):
                    raise ValueError(f"{path}: frame index {idx} outside "
                                     f"shared.frames[{len(frames)}]")
    return doc


def write_phase_report(path, report) -> dict:
    """Persist a :class:`~repro.telemetry.profiling.PhaseReport` as JSON."""
    doc = report.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc
