"""The paper's contribution: a passive P4 monitor for perfSONAR.

Data-plane side (:class:`~repro.core.monitor.P4Monitor`): a pipeline of
stages over the TAP copies —

- :mod:`repro.core.flow_table` — 5-tuple hashing, count-min-sketch
  long-flow detection, the 2048-slot per-flow register file (§3.3.2, §4);
- :mod:`repro.core.rtt` — Algorithm 1: eACK-based RTT and
  sequence-regression packet-loss counting (§4.3);
- :mod:`repro.core.queue_monitor` — per-packet queueing delay from the
  ingress/egress TAP copy pair (§4.2);
- :mod:`repro.core.microburst` — fully-data-plane microburst detection
  with nanosecond start/duration (§3.3.3);
- :mod:`repro.core.limiter` — flight-size tracking for the
  network-vs-endpoint limitation classifier (§4.4, after Ghasemi et al.).

Control-plane side (:class:`~repro.core.control_plane.MonitorControlPlane`):
periodic register extraction at the configured intervals (t_N, t_P, t_R,
t_Q), alert thresholds with rate boosting (a_N, a_P, a_R, a_Q), derived
metrics (throughput, loss %, queue occupancy, link utilisation, Jain's
fairness), long-flow termination reports, and Report_v1 emission toward
the perfSONAR archiver (§3.2, §5.3).
"""

from repro import _lazy_exports

_EXPORTS = {
    "MetricKind": ".config",
    "MonitorConfig": ".config",
    "MetricConfig": ".config",
    "P4Monitor": ".monitor",
    "MonitorControlPlane": ".control_plane",
    "Alert": ".reports",
    "AggregateSample": ".reports",
    "FlowSample": ".reports",
    "FlowTerminationReport": ".reports",
    "LimiterVerdict": ".reports",
    "MicroburstEvent": ".reports",
    "jain_fairness": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
