#!/usr/bin/env python3
"""Table 1, measured: a regular perfSONAR deployment and the P4-enhanced
one watch the same interval of real DTN traffic (including a microburst
and a receiver-limited transfer).

The regular node runs periodic active iperf3/ping tests through its
default aggregating Logstash pipeline; the P4 system watches passively.
The table rows are computed from the two archives.

Run:  python examples/regular_vs_p4.py        (~15 s)
"""

from repro.experiments.table1_comparison import run_table1


def main() -> None:
    result = run_table1(duration_s=45.0)
    print(result.summary())                # the table, then its claims


if __name__ == "__main__":
    main()
