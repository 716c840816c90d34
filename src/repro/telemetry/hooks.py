"""The process-wide observer slots, one ``None`` each while switched off.

A component binds an optional observer at construction by reading its
slot here once (``self._trace = hooks.tracer``) and keeps the handle, so
an observer that is off costs its hot path one ``is None`` test and the
process no import: this module imports nothing from ``repro``.  The
subsystems write the slots -- :func:`repro.telemetry.provenance.enable`,
:func:`repro.telemetry.profiling.enable`,
:func:`repro.resilience.faults.install` and
:func:`repro.resilience.checkpoint.install_manager` -- and their getters
(``provenance.tracer()``, ...) read them.  An observer switched on after a
component was built does not reach that component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.faults import FaultInjector
    from repro.telemetry.profiling import Profiler
    from repro.telemetry.provenance import ProvenanceTracer

#: The live provenance tracer.
tracer: Optional[ProvenanceTracer] = None
#: The live performance-attribution profiler.
profiler: Optional[Profiler] = None
#: The installed chaos fault injector.
injector: Optional[FaultInjector] = None
#: The installed control-plane checkpoint manager.
checkpoints: Optional[CheckpointManager] = None
