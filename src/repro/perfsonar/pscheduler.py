"""pScheduler: periodic coordination of active tests (Fig. 2).

A :class:`TestSpec` names a tool, a destination and a repeat interval;
:class:`PScheduler` fires the tool on schedule and pushes each result
document into the node's Logstash pipeline (as a block of one row, the
report-sink contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.reports import Block, document_run
from repro.netsim.engine import Event, Simulator
from repro.netsim.units import seconds
from repro.perfsonar.tools import (
    EchoAgent,
    Iperf3Tool,
    LossProbeTool,
    PingTool,
    ToolResult,
)
from repro.tcp.stack import TcpHostStack


@dataclass
class TestSpec:
    """One scheduled measurement task."""

    __test__ = False  # not a pytest class, despite the name

    test_type: str               # 'throughput' | 'rtt' | 'loss'
    dst_ip: int
    repeat_s: float = 60.0       # perfSONAR regular tests are sparse
    duration_s: float = 5.0      # throughput test length
    probe_count: int = 10
    start_s: float = 0.0
    enabled: bool = True


class PScheduler:
    def __init__(
        self,
        sim: Simulator,
        tcp_stack: TcpHostStack,
        echo_agent: EchoAgent,
        result_sink: Callable[[Block], None],
        peer_stack_resolver: Optional[Callable[[int], TcpHostStack]] = None,
    ) -> None:
        """``peer_stack_resolver`` maps a destination IP to the TCP stack
        of the far-side perfSONAR node (throughput tests need a server
        there, just as real pScheduler contacts the remote node)."""
        self.sim = sim
        self.tcp_stack = tcp_stack
        self.echo_agent = echo_agent
        self.result_sink = result_sink
        self.peer_stack_resolver = peer_stack_resolver
        self.specs: List[TestSpec] = []
        self._timers: List[Event] = []
        self.tests_run = 0
        self.results: List[dict] = []

    def add_test(self, spec: TestSpec) -> None:
        self.specs.append(spec)
        start_ns = max(self.sim.now, seconds(spec.start_s))
        self._timers.append(self.sim.at(start_ns, self._fire, spec))

    def stop(self) -> None:
        for t in self._timers:
            t.cancel()
        self._timers.clear()

    def _fire(self, spec: TestSpec) -> None:
        if spec.enabled:
            self.tests_run += 1
            self._run(spec)
        self._timers.append(self.sim.after(seconds(spec.repeat_s), self._fire, spec))

    def _run(self, spec: TestSpec) -> None:
        if spec.test_type == "throughput":
            if self.peer_stack_resolver is None:
                raise RuntimeError("throughput tests need a peer_stack_resolver")
            tool = Iperf3Tool(
                self.sim,
                self.tcp_stack,
                self.peer_stack_resolver(spec.dst_ip),
                spec.dst_ip,
                duration_s=spec.duration_s,
                on_done=self._collect,
            )
        elif spec.test_type == "rtt":
            tool = PingTool(
                self.sim, self.echo_agent, spec.dst_ip,
                count=spec.probe_count, on_done=self._collect,
            )
        elif spec.test_type == "loss":
            tool = LossProbeTool(
                self.sim, self.echo_agent, spec.dst_ip,
                count=spec.probe_count, on_done=self._collect,
            )
        else:
            raise ValueError(f"unknown test type {spec.test_type!r}")
        tool.start()

    def _collect(self, result: ToolResult) -> None:
        self.results.append(result.document)
        self.result_sink(Block((document_run(result.document),)))
