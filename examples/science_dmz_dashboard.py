#!/usr/bin/env python3
"""The paper's §5.2/§5.3 dashboard: three DTN transfers, per-flow panels
(Fig. 9) plus the control plane's aggregate link-utilisation and Jain's
fairness panels (Fig. 10).

Also demonstrates runtime reconfiguration through pSConfig (Fig. 6): at
the start the administrator sets RTT reporting to 2 samples/s and arms a
queue-occupancy alert that boosts its reporting rate to 10/s above 30 %.

Run:  python examples/science_dmz_dashboard.py        (~20 s)
"""

from repro.experiments.fig10_fairness import run_fig10


def main() -> None:
    result = run_fig10(duration_s=40.0, join_s=15.0)
    fig9 = result.fig9
    scenario = fig9.scenario

    # Fig. 6-style configuration via the perfSONAR node.
    node = scenario.perfsonar
    node.config_p4("config-P4 --metric RTT --samples_per_second 2")
    node.config_p4(
        "config-P4 --metric queue_occupancy --alert --threshold 30 "
        "--samples_per_second 10"
    )

    print(fig9.summary())
    print()
    print(result.summary())

    alerts = scenario.archiver.documents("p4_alert")
    print(f"\nalerts raised/cleared so far: {len(alerts)}")
    bursts = scenario.microbursts()
    print(f"microbursts on record: {len(bursts)}")
    if bursts:
        b = max(bursts, key=lambda x: x.peak_occupancy)
        print(
            f"  deepest: start {b.start_ns} ns, duration {b.duration_ns / 1e6:.2f} ms, "
            f"peak {100 * b.peak_occupancy:.0f}% of buffer"
        )


if __name__ == "__main__":
    main()
