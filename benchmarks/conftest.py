"""Fixtures the benchmarks share.

Two kinds of file live here.  ``test_paper_claims.py`` regenerates
every paper result at the scaled operating point (100 Mb/s bottleneck,
paper ratios preserved — DESIGN.md §2), prints and asserts the *shape*
claims each experiment module states (who wins, by what factor, where
crossovers fall).  The perf files
(``test_substrate_perf.py``, ``test_*_overhead.py``) hold same-host
budgets declared on ``benchmarks/harness.py``.  Run with::

    pytest benchmarks/ --benchmark-only

A run writes nothing into the tree; pytest-benchmark's own
``--benchmark-json=<file>`` is the record when one is wanted.  Speed
regressions are judged same-host, parent against change, by
``bench/run.py`` (docs/observability.md, "Overhead budgets").
"""

import pytest


def banner(title: str) -> None:
    print()
    print("=" * 74)
    print(f"  {title}")
    print("=" * 74)


@pytest.fixture
def once(benchmark):
    """Run the (expensive) experiment exactly once under the benchmark
    timer and return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
