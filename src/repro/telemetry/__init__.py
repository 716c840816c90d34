"""repro.telemetry — self-observability for the measurement stack.

The system reproduced here is itself a telemetry instrument; this
package watches the instrument.  One process-global
:class:`~repro.telemetry.metrics.MetricsRegistry` hangs off this module,
**disabled by default**.  A count lives once, in the tally its
component keeps anyway: the component registers reads of it at
construction with :func:`reads` (a no-op while off) and a snapshot
reads it.  Only a value that exists at one sim-time instant (a queue
depth, a record's size) is observed where it happens, through a handle
cached at construction that is ``None`` when off (the enabled end-to-end
budget is ``benchmarks/test_telemetry_overhead.py``).  Telemetry times
nothing: wall time is the phase profiler's
(:mod:`repro.telemetry.profiling`), so a seeded run's snapshot is the
same on every run (bar the profiler's own mirror, when both are on).

Typical use::

    from repro import telemetry

    telemetry.enable()
    scenario = Scenario(...)          # components built now are instrumented
    scenario.run(40.0)
    print(telemetry.render_table(telemetry.snapshot()))

Naming conventions (see docs/observability.md):

- every family is prefixed ``repro_<subsystem>_``;
- counters end in ``_total``, durations in ``_ns``, sizes in ``_bytes``;
- label values must be low-cardinality (stage/metric/index names —
  never flow IDs or timestamps).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricFamily, MetricsRegistry

# The exporters and the metric model load on first use: while telemetry
# is off, importing this package builds no registry and imports neither.
_EXPORTS = {
    "SIZE_BUCKETS": ".metrics",
    "render_table": ".export",
    "to_json": ".export",
    "to_prometheus_text": ".export",
}

# What other packages reach through ``repro.telemetry`` (pinned by
# tests/test_public_surface.py); the flight recorder, profiler,
# provenance tracer and observer slots (:mod:`repro.telemetry.hooks`) are
# imported as submodules by whoever uses them.
__all__ = [
    "enable", "disable", "enabled", "registry", "reset", "snapshot",
    "reads", "rebase", "histogram", *_EXPORTS,
]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

_registry: Optional[MetricsRegistry] = None
_enabled = False


def enable() -> None:
    """Turn telemetry on.  Components constructed *after* this call pick
    up instrumentation; already-built components stay dark."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    """The process-wide registry, built on first use."""
    global _registry
    if _registry is None:
        from repro.telemetry.metrics import MetricsRegistry
        _registry = MetricsRegistry()
    return _registry


def reset() -> None:
    """Fresh registry (tests).  Keeps the enabled flag and drops every
    family and collector: components built before the reset are no
    longer read, and their cached observation handles write into the
    old, now-unreachable registry."""
    global _registry
    _registry = None


# -- what components call ----------------------------------------------------


def reads(owner: object, counters: Sequence[tuple] = (),
          gauges: Sequence[tuple] = ()) -> None:
    """Register ``owner``'s families as reads of the tallies it keeps
    (:class:`~repro.telemetry.metrics.TallyReads`); a no-op while
    telemetry is off."""
    if _enabled:
        from repro.telemetry.metrics import TallyReads
        reg = registry()
        reg.add_collector(TallyReads(reg, owner, counters, gauges))


def rebase(*owners: object) -> None:
    """After a restore, ``owners``' counters take the tallies they hold as
    counted already; a no-op while no registry exists (nothing reads
    them), so a restore with telemetry off imports no metric model."""
    if _registry is not None:
        _registry.rebase(*owners)


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> MetricFamily:
    return registry().histogram(name, help, labels, buckets=buckets)


def snapshot() -> dict:
    return registry().snapshot()
