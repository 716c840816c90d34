"""A perfSONAR node.

Combines the substrate pieces on one simulated host: the Tools layer
(iperf3/ping/loss over the network), pScheduler, a Logstash pipeline into
an OpenSearch archive, and pSConfig.

Two operating modes, matching Table 1's comparison:

- **regular** — only active tests; the Logstash pipeline applies
  perfSONAR's default aggregation (throughput → average only, RTT →
  min/mean/max);
- **P4-enhanced** — additionally receives the P4 control plane's passive
  per-flow reports through the same archiver, and exposes ``config-P4``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.logstash import AggregateTestFilter
from repro.perfsonar.opensearch import OpenSearchStore
from repro.perfsonar.pscheduler import PScheduler, TestSpec
from repro.perfsonar.psconfig import PSConfig
from repro.perfsonar.tools import EchoAgent
from repro.tcp.stack import TcpHostStack


class PerfSonarNode:
    def __init__(
        self,
        sim: Simulator,
        host: Host,
        mss: int = 8948,
        aggregate_results: bool = True,
        store: Optional[OpenSearchStore] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.tcp_stack = TcpHostStack(sim, host, default_mss=mss)
        self.echo_agent = EchoAgent(sim, host)
        self.archiver = Archiver(store=store)
        self.aggregate_filter: Optional[AggregateTestFilter] = None
        if aggregate_results:
            # perfSONAR's default Logstash configuration (§2.3): active
            # test results are collapsed to aggregates before archiving.
            self.aggregate_filter = AggregateTestFilter()
            self.archiver.pipeline.filters.insert(0, self.aggregate_filter)
        self._peer_stacks: Dict[int, TcpHostStack] = {}
        self.pscheduler = PScheduler(
            sim,
            self.tcp_stack,
            self.echo_agent,
            result_sink=self.archiver.sink,
            peer_stack_resolver=self._resolve_peer,
        )
        self.psconfig = PSConfig()

    # -- regular perfSONAR operation ---------------------------------------------

    def register_peer(self, node: "PerfSonarNode") -> None:
        """Teach this node where a remote perfSONAR node's measurement
        endpoint lives (mesh configuration)."""
        self._peer_stacks[node.host.ip] = node.tcp_stack

    def _resolve_peer(self, dst_ip: int) -> TcpHostStack:
        try:
            return self._peer_stacks[dst_ip]
        except KeyError:
            raise KeyError(
                f"{self.host.name}: no registered perfSONAR peer at {dst_ip:#x}"
            ) from None

    def schedule_test(self, spec: TestSpec) -> None:
        self.pscheduler.add_test(spec)

    # -- P4 enhancement ------------------------------------------------------------

    def config_p4(self, command_line: str):
        """Run a Fig. 6 style command, e.g.
        ``node.config_p4("config-P4 --metric RTT --samples_per_second 2")``."""
        return self.psconfig.run(command_line)

    # -- queries -----------------------------------------------------------------

    def archived(self, kind: str, **terms) -> List[dict]:
        return self.archiver.documents(kind, **terms)
