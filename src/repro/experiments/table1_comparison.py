"""Table 1 — regular perfSONAR vs the P4-enhanced deployment.

One simulation carries: a real DTN transfer (CUBIC, network-limited), a
receiver-limited DTN transfer, and an injected microburst.  A regular
perfSONAR node runs its periodic active tests (iperf3 + ping) against a
remote perfSONAR node, archiving through perfSONAR's default aggregating
pipeline; the P4 system watches the same interval passively.

Each Table 1 row is then *measured* from the two archives:

| row | regular perfSONAR | P4-perfSONAR |
|---|---|---|
| measurement type      | active (injects traffic)  | passive (zero injected) |
| measurement source    | its own test flows        | the real DTN flows |
| granularity           | 1 aggregate per test      | per-second per-flow samples |
| visibility            | only while a test runs    | whole transfer lifetime |
| microburst detection  | none                      | ns-resolution events |
| endpoint-limitation   | none                      | §4.4 verdicts |
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MetricKind
from repro.core.reports import LimiterVerdict
from repro.experiments.claims import Claim, claim, claims_table, ratio
from repro.experiments.common import Scenario, ScenarioConfig
from repro.perfsonar.node import PerfSonarNode
from repro.perfsonar.pscheduler import TestSpec
from repro.viz import render_table


@dataclass
class Table1Result:
    scenario: Scenario
    # Regular perfSONAR facts.
    active_tests_run: int
    active_bytes_injected: int
    regular_throughput_docs: List[dict]
    regular_rtt_docs: List[dict]
    regular_dtn_flow_docs: int          # docs about the real DTN flows (expect 0)
    # P4 facts.
    p4_bytes_injected: int              # expect 0 (passive)
    p4_flow_samples: int
    p4_samples_per_flow_second: float
    p4_microbursts: int
    p4_endpoint_verdicts: Dict[str, str] = field(default_factory=dict)
    coverage_regular_s: float = 0.0     # seconds of the run an active test covered
    coverage_p4_s: float = 0.0

    def rows(self) -> List[Tuple[str, str, str]]:
        agg_vals = "avg only" if all(
            "value" in d and "intervals" not in d for d in self.regular_throughput_docs
        ) else "samples"
        return [
            ("Measurements type",
             f"active ({self.active_tests_run} tests, "
             f"{self.active_bytes_injected / 1e6:.1f} MB injected)",
             f"passive ({self.p4_bytes_injected} bytes injected)"),
            ("Measurements source",
             f"injected test traffic ({self.regular_dtn_flow_docs} docs about real flows)",
             f"real traffic ({self.p4_flow_samples} per-flow samples)"),
            ("Granularity",
             f"per-test aggregate ({agg_vals})",
             f"{self.p4_samples_per_flow_second:.1f} samples/flow/s"),
            ("Visibility",
             f"{self.coverage_regular_s:.0f}s of run covered by tests",
             f"{self.coverage_p4_s:.0f}s continuous"),
            ("Microburst detection",
             "not supported (0 events)",
             f"{self.p4_microbursts} events, ns resolution"),
            ("Endpoint-limitation detection",
             "not supported",
             f"verdicts: {self.p4_endpoint_verdicts}"),
        ]

    def summary(self) -> str:
        return "\n\n".join([
            render_table(["Feature", "Regular perfSONAR", "P4-perfSONAR"],
                         self.rows()),
            claims_table(claims(self)),
        ])


def claims(result: Table1Result) -> List[Claim]:
    """One or two claims per Table 1 row, in row order."""
    return [
        claim("table1.p4_bytes_injected", result.p4_bytes_injected, "==", 0),
        claim("table1.regular_bytes_injected", result.active_bytes_injected,
              ">", 1e6),
        claim("table1.regular_docs_about_real_flows",
              result.regular_dtn_flow_docs, "==", 0),
        claim("table1.p4_flow_samples", result.p4_flow_samples, ">", 30),
        claim("table1.regular_throughput_docs_with_intervals",
              sum("intervals" in d for d in result.regular_throughput_docs),
              "==", 0),
        claim("table1.p4_samples_per_flow_second",
              result.p4_samples_per_flow_second, ">", 0.2),
        claim("table1.p4_over_regular_coverage",
              ratio(result.coverage_p4_s, result.coverage_regular_s), ">", 2.0),
        claim("table1.p4_microbursts", result.p4_microbursts, ">", 0),
        claim("table1.p4_receiver_limited_verdicts",
              list(result.p4_endpoint_verdicts.values()).count(
                  LimiterVerdict.RECEIVER_LIMITED.value), ">=", 1),
    ]


def run_table1(
    duration_s: float = 45.0,
    test_repeat_s: float = 20.0,
    test_duration_s: float = 4.0,
    config: Optional[ScenarioConfig] = None,
) -> Table1Result:
    scenario = Scenario(config or ScenarioConfig())
    assert scenario.perfsonar is not None
    topo = scenario.topology

    # Remote perfSONAR node (regular mesh peer) in external network 1.
    remote = PerfSonarNode(
        scenario.sim, topo.external_perfsonar[0],
        mss=scenario.config.topology_config().mss,
    )
    local = scenario.perfsonar
    local.register_peer(remote)

    # Regular perfSONAR schedule: periodic throughput + RTT tests.
    local.schedule_test(TestSpec(
        "throughput", dst_ip=remote.host.ip,
        repeat_s=test_repeat_s, duration_s=test_duration_s, start_s=2.0,
    ))
    local.schedule_test(TestSpec(
        "rtt", dst_ip=remote.host.ip, repeat_s=test_repeat_s, start_s=1.0,
    ))

    # The real workload the regular node cannot see: one network-limited
    # and one receiver-limited DTN transfer, plus a microburst.
    scenario.add_flow(0, start_s=0.0, duration_s=duration_s)
    scenario.add_flow(1, start_s=0.0, duration_s=duration_s,
                      server_rcv_buf=32 * 1024)
    buffer_bytes = scenario.config.topology_config().buffer_bytes()
    scenario.inject_burst(duration_s / 2, nbytes=4 * buffer_bytes)

    scenario.run(duration_s + 3.0)

    cp = scenario.control_plane
    throughput_docs = local.archived("throughput")
    rtt_docs = local.archived("rtt")
    # Does the regular archive contain anything about the DTN flows?
    dtn_ips = {topo.external_dtns[0].ip, topo.external_dtns[1].ip}
    dtn_docs = [
        d for kind in ("throughput", "rtt", "loss")
        for d in local.archived(kind)
        if d.get("destination_ip") in dtn_ips
    ]
    active_bytes = sum(d.get("bytes", 0) for d in throughput_docs)
    tests_run = local.pscheduler.tests_run

    samples = cp.flow_samples[MetricKind.THROUGHPUT]
    n_flows = max(1, len(cp.flows))
    verdicts = {}
    for flow in cp.flows.values():
        if flow.verdict.is_endpoint:
            verdicts[f"{flow.flow_id:#x}"] = flow.verdict.value

    return Table1Result(
        scenario=scenario,
        active_tests_run=tests_run,
        active_bytes_injected=active_bytes,
        regular_throughput_docs=throughput_docs,
        regular_rtt_docs=rtt_docs,
        regular_dtn_flow_docs=len(dtn_docs),
        p4_bytes_injected=0,  # the monitor has no transmit path at all
        p4_flow_samples=len(samples),
        p4_samples_per_flow_second=len(samples) / (duration_s * n_flows),
        p4_microbursts=len(cp.microbursts),
        p4_endpoint_verdicts=verdicts,
        coverage_regular_s=tests_run / 2 * test_duration_s,
        coverage_p4_s=duration_s,
    )
