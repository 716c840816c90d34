"""Runnable reproductions of the paper's evaluation (§5).

One module per table/figure:

- :mod:`repro.experiments.fig9_perflow` — per-flow throughput / RTT /
  queue occupancy / packet loss as a third transfer joins (Fig. 9);
- :mod:`repro.experiments.fig10_fairness` — link utilisation and Jain's
  fairness over the same run (Fig. 10);
- :mod:`repro.experiments.fig11_microburst` — small (BDP/4) buffer and
  microburst impact (Fig. 11 / §5.4.1);
- :mod:`repro.experiments.fig12_limiter` — network- vs sender/receiver-
  limited classification (Fig. 12 / §5.4.2);
- :mod:`repro.experiments.fig13_iat` — packet IAT under mmWave LOS
  blockage (Fig. 13 / §5.4.3);
- :mod:`repro.experiments.fig14_recovery` — recovery speed of the P4,
  throughput-based and RSSI-based systems (Fig. 14);
- :mod:`repro.experiments.table1_comparison` — the regular-vs-P4
  capability matrix (Table 1);
- :mod:`repro.experiments.ablations` — design-choice ablations
  (DESIGN.md §5).

Every experiment runs at a scaled bottleneck rate (default 100 Mb/s, see
DESIGN.md §2) with the paper's ratios preserved.  Each module states the
paper's shape claims about its result as data (``claims(result)``,
:mod:`repro.experiments.claims`); :mod:`repro.experiments.paper` pairs
every run with its claims.
"""

from repro.experiments.common import Scenario, ScenarioConfig, FlowHandle

__all__ = ["Scenario", "ScenarioConfig", "FlowHandle"]
