"""The paper's shape claims, each written once, as data.

Every experiment module states what the paper observes about its result
as a function ``claims(result) -> [Claim]`` (the ablations module has one
per ablation).  A claim is ``(name, measured, bound, holds)``: ``name`` is
the stable id EXPERIMENTS.md cites, ``measured`` the number the run
produced, ``bound`` the comparison it must satisfy.  Bounds are written in
the result's own terms (shares of its bottleneck, ratios between its
runs, times relative to its join or blockage), so the one list holds at
whatever scale the experiment ran: ``benchmarks/test_paper_claims.py``
asserts it at full scale, ``tests/experiments/`` at reduced scale, and
neither keeps a threshold of its own.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, List, NamedTuple

from repro.viz import render_table

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "==": operator.eq,
        "in": lambda v, bounds: bounds[0] < v < bounds[1]}


class Claim(NamedTuple):
    name: str
    measured: float
    bound: str
    holds: bool


def claim(name: str, measured, op: str, bound) -> Claim:
    """``measured <op> bound`` (``in`` takes an open interval ``(lo,
    hi)``); a measurement the run could not produce is ``nan`` and fails
    every comparison."""
    measured = float(measured)
    text = (f"in ({bound[0]:g}, {bound[1]:g})" if op == "in"
            else f"{op} {bound:g}")
    return Claim(name, measured, text, _OPS[op](measured, bound))


def ratio(a: float, b: float) -> float:
    """``a / b``, or ``nan`` (a failed claim) when ``b`` is zero."""
    return a / b if b else math.nan


def claims_table(claims: Iterable[Claim]) -> str:
    return render_table(
        ["claim", "measured", "bound", "holds"],
        [(c.name, f"{c.measured:.4g}", c.bound, "yes" if c.holds else "NO")
         for c in claims])


def assert_claims(claims: List[Claim]) -> None:
    """Fail with the whole table when any claim does not hold."""
    if not (claims and all(c.holds for c in claims)):
        raise AssertionError("paper claims failed:\n" + claims_table(claims))
