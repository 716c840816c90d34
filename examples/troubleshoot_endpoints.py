#!/usr/bin/env python3
"""The §5.4.2 troubleshooting workflow: which transfers are limited by
the network, and which by their own endpoints?

Three transfers with three different bottlenecks (random path loss /
small receiver buffer / paced sender) run side by side.  The P4 system
classifies each from flight-size and loss dynamics alone — no active
test traffic — and the example then shows the recommended action per
§3.3.4: run active measurements only for the network-limited flow.

Run:  python examples/troubleshoot_endpoints.py
"""

from repro.core.reports import LimiterVerdict
from repro.experiments.fig12_limiter import run_fig12


def main() -> None:
    result = run_fig12(duration_s=40.0)
    print(result.summary())

    print("\nrecommended actions (§3.3.4):")
    for label, verdict in result.verdicts.items():
        if verdict is LimiterVerdict.NETWORK_LIMITED:
            action = ("network-limited -> schedule an active pScheduler test "
                      "to localise the problem")
        elif verdict.is_endpoint:
            action = (f"{verdict.value}-limited -> fix the endpoint (tune "
                      "buffers / application); active tests would only add load")
        else:
            action = "no stable verdict yet; keep observing"
        print(f"  {label}: {action}")

    # The verdict history is in the archive too.
    archiver = result.scenario.archiver
    docs = archiver.documents("p4_limiter")
    print(f"\nlimiter reports archived: {len(docs)}")


if __name__ == "__main__":
    main()
