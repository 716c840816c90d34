#!/usr/bin/env python3
"""Quickstart: watch one real transfer with the passive P4 monitor.

Builds the paper's Fig. 8 topology (scaled to 100 Mb/s), attaches the
optical TAP pair + P4 monitor + control plane + perfSONAR archiver, runs
a single 15-second iPerf3 transfer, and prints what the monitor saw next
to the endpoint's own ground truth.

Run:  python examples/quickstart.py
"""

from repro.core.config import MetricKind
from repro.experiments.common import Scenario, ScenarioConfig
from repro.viz import timeseries_panel


def main() -> None:
    scenario = Scenario(ScenarioConfig(bottleneck_mbps=100.0))
    flow = scenario.add_flow(dst_index=0, start_s=0.0, duration_s=15.0)
    scenario.run(until_s=17.0)

    # --- what the P4 monitor reported (passively, from the TAP copies) ---
    monitor_thr = scenario.throughput_series_mbps(flow)
    rtt = scenario.monitor_series(flow, MetricKind.RTT)
    qocc = scenario.monitor_series(flow, MetricKind.QUEUE_OCCUPANCY)
    print(timeseries_panel(
        {"monitor": monitor_thr, "ground truth": flow.ground_truth_series},
        "Throughput: P4 monitor vs receiving endpoint", unit="Mbps",
    ))
    print(timeseries_panel({"rtt": rtt}, "RTT (passive, eACK algorithm)", unit="ms"))
    print(timeseries_panel({"queue": qocc}, "Core-switch queue occupancy", unit="%"))

    # --- the flow's termination report (§3.3.2) ---
    for report in scenario.control_plane.terminations:
        print(
            f"\nterminated flow {report.flow_id:#x}: "
            f"{report.total_bytes / 1e6:.1f} MB in {report.duration_ns / 1e9:.2f}s, "
            f"avg {report.avg_throughput_bps / 1e6:.1f} Mbps, "
            f"{report.retransmissions} retransmissions "
            f"({report.retransmission_pct:.2f}%)"
        )

    # --- everything also landed in the perfSONAR archive (Fig. 7) ---
    archiver = scenario.archiver
    print("\narchive indices:", archiver.store.indices)
    print("throughput documents archived:", archiver.count("p4_throughput"))


if __name__ == "__main__":
    main()
