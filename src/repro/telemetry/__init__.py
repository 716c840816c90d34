"""repro.telemetry — self-observability for the measurement stack.

The system reproduced here is itself a telemetry instrument; this
package watches the instrument.  One process-global
:class:`~repro.telemetry.metrics.MetricsRegistry` hangs off this module,
**disabled by default**: instrumented components test :func:`enabled` once at
construction and cache the result, so the disabled hot path costs at
most a single ``is None`` check — the pipeline traversal none at all,
which tests/p4/test_pipeline_binding.py pins (the enabled end-to-end
budget is ``benchmarks/test_telemetry_overhead.py``).

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

from typing import Optional, Sequence

from repro.telemetry.export import render_table, to_json, to_prometheus_text
from repro.telemetry.metrics import SIZE_BUCKETS, MetricFamily, MetricsRegistry

# What other packages reach through ``repro.telemetry`` (pinned by
# tests/test_public_surface.py); the flight recorder, profiler and
# provenance tracer are imported as submodules by whoever uses them.
__all__ = [
    "enable", "disable", "enabled", "registry", "reset", "snapshot",
    "counter", "gauge", "histogram", "SIZE_BUCKETS",
    "render_table", "to_json", "to_prometheus_text",
]

_registry = MetricsRegistry()
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
    return _registry


def reset() -> None:
    """Fresh registry (tests).  Keeps the enabled flag, drops every
    family, collector and any component-cached handle's backing —
    components built before the reset keep writing into the old,
    now-unreachable registry."""
    global _registry
    _registry = MetricsRegistry()


# -- convenience pass-throughs to the global registry ----------------------


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _registry.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _registry.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> MetricFamily:
    return _registry.histogram(name, help, labels, buckets=buckets)


def snapshot(collect: bool = True) -> dict:
    return _registry.snapshot(collect=collect)
