#!/usr/bin/env python3
"""Offline collector workflow: capture the TAP mirror streams to real
pcap files, then analyse them later with the identical monitor pipeline.

This is how the system runs without dedicated hardware — a software
collector (scapy/P4Runtime style) records the mirror ports; the analysis
(flow table, Algorithm 1 RTT/loss, queue pairing, microbursts,
termination reports) is byte-for-byte the same code as the live path.
The example verifies the offline results match the live run exactly,
then renders a MaDDash-style grid and exports a Grafana dashboard JSON.

Run:  python examples/offline_analysis.py
"""

import json
import tempfile
from pathlib import Path

from repro.core.config import MonitorConfig
from repro.core.replay import OfflineAnalyzer
from repro.experiments.common import Scenario, ScenarioConfig
from repro.netsim.pcap import PcapCapture
from repro.netsim.tap import TapDirection
from repro.perfsonar.dashboard import build_dashboard, panel_series
from repro.perfsonar.maddash import MadDashGrid, Thresholds
from repro.viz import timeseries_panel


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="p4-capture-"))

    # --- live run, tee-ing the mirror streams into pcap captures ---------
    ingress_cap, egress_cap = PcapCapture(), PcapCapture()

    def tee(copy):
        cap = ingress_cap if copy.direction is TapDirection.INGRESS else egress_cap
        cap.from_mirror(copy)

    scenario = Scenario(ScenarioConfig(bottleneck_mbps=50.0),
                        with_perfsonar=False, copy_recorder=tee)
    scenario.add_flow(0, duration_s=10.0)
    scenario.add_flow(1, start_s=2.0, duration_s=8.0)
    scenario.run(12.0)

    ingress_pcap = workdir / "tap-ingress.pcap"
    egress_pcap = workdir / "tap-egress.pcap"
    print(f"captured {ingress_cap.save(ingress_pcap)} ingress + "
          f"{egress_cap.save(egress_pcap)} egress frames -> {workdir}")

    # --- offline analysis of the pcaps, reports into its archive ----------
    analyzer = OfflineAnalyzer(
        MonitorConfig(
            bottleneck_rate_bps=scenario.monitor.config.bottleneck_rate_bps,
            buffer_bytes=scenario.monitor.config.buffer_bytes,
        ),
    ).replay_pcap_pair(ingress_pcap, egress_pcap)
    archive = analyzer.archiver

    print()
    print(analyzer.summary())

    # --- cross-check against the live control plane -----------------------
    live_cp = scenario.control_plane
    match = set(analyzer.flows) == set(live_cp.flows)
    print(f"\noffline flow set == live flow set: {match}")

    # --- presentation layer ------------------------------------------------
    print()
    print(timeseries_panel(
        {k: [(t, v / 1e6) for t, v in pts]
         for k, pts in panel_series(archive, "p4_throughput").items()},
        "Throughput (from the offline archive)", unit="Mbps",
    ))

    grid = MadDashGrid(archive, Thresholds(throughput_expected_bps=50e6 / 2))
    print()
    print(grid.render("p4_throughput"))

    dash_path = workdir / "dashboard.json"
    dash_path.write_text(json.dumps(build_dashboard(archive), indent=2))
    print(f"\nGrafana dashboard JSON written to {dash_path} "
          f"({len(build_dashboard(archive)['panels'])} panels)")


if __name__ == "__main__":
    main()
