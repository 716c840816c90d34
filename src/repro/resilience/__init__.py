"""repro.resilience — fault injection and resilient report delivery.

The paper's deployment ships Report_v1 records from the switch control
plane through Logstash into the OpenSearch archive (Fig. 7).  In a real
Science-DMZ that path fails constantly: archiver restarts, slow
consumers, dropped TCP sessions.  This package makes the reproduction
survive those failures, and proves it with a deterministic chaos
harness (docs/robustness.md):

- :mod:`~repro.resilience.schedule` — declarative, seeded, JSON-round-
  trippable fault schedules (outage windows, stalls, per-report fates,
  extraction-tick stalls, clock skew);
- :mod:`~repro.resilience.faults` — the active injector, installed
  process-globally into the ``hooks.injector`` slot
  (:mod:`repro.telemetry.hooks`) the way :mod:`repro.telemetry.provenance`
  installs its tracer; components read the slot at construction, so the
  disabled hot path costs one ``is None`` test
  (pinned by ``tests/test_disabled_guards.py``);
- :mod:`~repro.resilience.delivery` — :class:`ResilientShipper` (per
  block: one envelope, spool slot and retry; capped jittered backoff,
  dead-letter overflow, at-least-once); its archiver-side twin,
  :class:`~repro.perfsonar.logstash.SequenceDedup` (idempotent ingest,
  one probe per envelope), lives beside the output plugin that probes it
  and is re-exported here;
- :mod:`~repro.resilience.breaker` — circuit breaker driving graceful
  degradation (collapse to aggregate reports, widen t_N–t_Q intervals)
  and restoration;
- :mod:`~repro.resilience.watchdog` — extraction-tick stall detection;
- :mod:`~repro.resilience.checkpoint` — ``repro-checkpoint-v1``
  snapshots of everything the control-plane process holds (register
  banks, cursors, alert/histogram/forensics state, shipper books,
  dedup marks), captured after every destructive step and restored
  into a fresh control plane after a crash;
- :mod:`~repro.resilience.supervisor` — the kill/restart loop driving
  ``cp_crash`` recovery: backoff, escalation, give-up policy;
- :mod:`~repro.resilience.chaos` — the one chaos driver, ``run_chaos``:
  a workload scenario + fault schedule, run with the ground-truth oracle
  attached, asserting zero acknowledged-report loss and exactly-once
  archive contents.  A schedule with a ``cp_crash`` window makes it a
  crash run (checkpoints, supervisor, uncrashed twin; each
  incarnation's dead-letter evictions counted since its restore)
  whose result adds a ``recovery`` section (imported lazily: it pulls
  in the experiment framework).
"""

from repro import _lazy_exports

_EXPORTS = {
    "DeliveryError": ".faults",
    "ArchiveUnavailable": ".faults",
    "BackpressureError": ".faults",
    "ConnectionLostError": ".faults",
    "DeliveryTimeout": ".faults",
    "DeferredDelivery": ".faults",
    "BreakerOpen": ".faults",
    "FaultInjector": ".faults",
    "injector": ".faults",
    "install": ".faults",
    "uninstall": ".faults",
    "FaultSchedule": ".schedule",
    "FaultWindow": ".schedule",
    "FAULT_KINDS": ".schedule",
    "bundled_schedules": ".schedule",
    "DeliveryConfig": ".delivery",
    "ResilientShipper": ".delivery",
    "FaultyTransport": ".delivery",
    "SequenceDedup": "..perfsonar.logstash",
    "BreakerState": ".breaker",
    "CircuitBreaker": ".breaker",
    "DegradationPolicy": ".breaker",
    "ExtractionWatchdog": ".watchdog",
    "CHECKPOINT_SCHEMA": ".checkpoint",
    "CheckpointManager": ".checkpoint",
    "CheckpointStore": ".checkpoint",
    "capture_checkpoint": ".checkpoint",
    "restore_control_plane": ".checkpoint",
    "restore_dataplane": ".checkpoint",
    "Supervisor": ".supervisor",
    "SupervisorPolicy": ".supervisor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
