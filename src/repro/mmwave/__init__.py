"""60 GHz mmWave substrate (paper §5.4.3, Figs. 13-14, after ref. [26]).

Data-centre mmWave links suffer line-of-sight (LOS) blockage: when the
beam is blocked, the link collapses to a reflected/fallback path orders
of magnitude slower, and packet inter-arrival times (IAT) inflate
correspondingly.  The paper compares three detection/reaction systems:

- **P4 IAT-based** — a programmable data plane watches per-packet IAT and
  triggers a handover within packet timescales;
- **throughput-based** — a controller polls counters and reacts when the
  measured rate degrades;
- **RSSI-based** — off-the-shelf devices average the received signal
  strength indicator and react when it stays below a threshold.

Modules: :mod:`repro.mmwave.channel` (link + blockage + RSSI),
:mod:`repro.mmwave.traffic` (CBR sender / throughput meter),
:mod:`repro.mmwave.detectors` (the three systems),
:mod:`repro.mmwave.handover` (beam-switch reaction).
"""

from repro import _lazy_exports

_EXPORTS = {
    "MmWaveLink": ".channel",
    "BlockageSchedule": ".channel",
    "CbrSender": ".traffic",
    "ThroughputMeter": ".traffic",
    "IatDetector": ".detectors",
    "ThroughputDetector": ".detectors",
    "RssiDetector": ".detectors",
    "HandoverController": ".handover",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
