"""Which traversal body a pipeline runs is decided at construction.

With every observer off a :class:`P4Pipeline` runs the class's plain
``process`` — no instance attribute shadows it, so there is no guard to
time.  Telemetry only reads the pipeline's tallies, so it leaves that
body in place too; a phase profiler or a tracer binds
``_process_observed``.  This is the property the "disabled observer
costs the pipeline ≤ 2 %" budgets existed to protect, pinned as a
structure instead of a clock.
"""

import pytest

from repro import telemetry
from repro.p4.pipeline import P4Pipeline
from repro.telemetry import profiling, provenance

from tests.core.helpers import small_monitor


def _telemetry_off():
    telemetry.disable()
    telemetry.reset()


OBSERVERS = {
    "profiler": (lambda: profiling.enable(mode="phase"), profiling.disable),
    "tracer": (provenance.enable, provenance.disable),
}


def test_unobserved_pipeline_runs_the_plain_body_on_class_dispatch():
    assert not telemetry.enabled()
    assert not profiling.active() and not provenance.active()
    pipeline = small_monitor().pipeline
    assert "process" not in vars(pipeline)
    assert pipeline.process.__func__ is P4Pipeline.process


def test_telemetry_alone_keeps_the_plain_body():
    telemetry.enable()
    try:
        pipeline = small_monitor().pipeline
    finally:
        _telemetry_off()
    assert "process" not in vars(pipeline)
    assert pipeline.process.__func__ is P4Pipeline.process


@pytest.mark.parametrize("observer", OBSERVERS)
def test_each_observer_binds_the_observed_body(observer):
    enable, disable = OBSERVERS[observer]
    enable()
    try:
        pipeline = small_monitor().pipeline
    finally:
        disable()
    assert pipeline.process.__func__ is P4Pipeline._process_observed
    # Bound once, at construction: a pipeline built afterwards is dark.
    assert "process" not in vars(small_monitor().pipeline)


def test_a_subclass_override_is_never_shadowed():
    class Custom(P4Pipeline):
        def process(self, packet, meta):
            return None

    provenance.enable()
    try:
        pipeline = Custom("custom")
    finally:
        provenance.disable()
    assert "process" not in vars(pipeline)
    assert pipeline.process.__func__ is Custom.process
