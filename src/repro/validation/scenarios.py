"""Seeded, JSON-serialisable scenario specs and their assembly.

A :class:`ScenarioSpec` fully determines one validation run: topology
scale, workload flows, netem impairments, microburst trains, link flaps
and monitor overrides.  ``ScenarioSpec.from_seed(seed)`` derives every
parameter from one integer through ``random.Random``, so a failing run
is reproducible from its seed alone; ``to_jsonable``/``from_jsonable``
round-trip the spec so the fuzzer's shrinker can serialise the *minimal*
failing scenario as a replayable artifact.

``spec.build()`` assembles the spec into a :class:`ValidationRun`: the
experiment-framework :class:`Scenario` (topology + P4 monitor + control
plane) with an :class:`EventStream` observer wired at the same points as
the optical TAPs and a :class:`GroundTruthOracle` subscribed to it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional

from repro.netsim.netem import DelayImpairment, FlapImpairment, ReorderImpairment
from repro.netsim.observer import EventStream, observe_topology
from repro.netsim.units import seconds
from repro.experiments.common import Scenario, ScenarioConfig
from repro.validation.oracle import GroundTruthOracle

SPEC_SCHEMA = "repro-validate-v1"

#: Jitter at or above this reorders enough to widen the loss tolerance.
REORDER_JITTER_NS = 1_000_000


@dataclass
class FlowSpec:
    """One iPerf3-style transfer."""

    dst_index: int
    start_s: float
    duration_s: float
    cc: str = "cubic"
    rate_mbps: Optional[float] = None
    server_rcv_buf: int = 4 * 1024 * 1024


@dataclass
class LossSpec:
    """Random loss on one external DTN's access link."""

    dst_index: int
    loss_rate: float
    seed: int


@dataclass
class JitterSpec:
    """Extra delay/jitter on one access link (both directions)."""

    dst_index: int
    delay_ns: int
    jitter_ns: int
    seed: int


@dataclass
class ReorderSpec:
    """Probabilistic reordering on one access link."""

    dst_index: int
    probability: float
    extra_delay_ns: int
    seed: int


@dataclass
class BurstSpec:
    """A UDP microburst train into the bottleneck."""

    at_s: float
    nbytes: int
    dst_index: int
    pkt_len: int = 1400


@dataclass
class FlapSpec:
    """A mid-run outage of one access link."""

    dst_index: int
    start_s: float
    duration_s: float


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one validation run."""

    seed: int
    bottleneck_mbps: float = 20.0
    rtts_ms: List[float] = field(default_factory=lambda: [20.0, 35.0, 50.0])
    buffer_bdp_fraction: float = 1.0
    duration_s: float = 10.0
    long_flow_bytes: int = 50_000
    cms_width: int = 4096
    histograms: bool = False
    #: Queue forensics (time-window registers + culprit attribution on
    #: microburst/rtt_distribution alerts).
    forensics: bool = False
    #: Which monitor hot path to bind at construction (True = batched
    #: kernel, False = scalar per-packet dispatch).  The differential
    #: oracle never sees the difference — that is the equivalence
    #: contract tests/validation/test_batch_equivalence.py enforces.
    batched_path: bool = True
    flows: List[FlowSpec] = field(default_factory=list)
    losses: List[LossSpec] = field(default_factory=list)
    jitters: List[JitterSpec] = field(default_factory=list)
    reorders: List[ReorderSpec] = field(default_factory=list)
    bursts: List[BurstSpec] = field(default_factory=list)
    flaps: List[FlapSpec] = field(default_factory=list)

    # -- derivation ----------------------------------------------------------

    @classmethod
    def from_seed(cls, seed: int) -> "ScenarioSpec":
        """Derive a full randomized scenario from one integer."""
        rng = random.Random(seed)
        duration = rng.uniform(6.0, 12.0)
        spec = cls(
            seed=seed,
            bottleneck_mbps=rng.choice([10.0, 15.0, 20.0, 25.0, 30.0, 40.0]),
            rtts_ms=sorted(rng.uniform(10.0, 60.0) for _ in range(3)),
            buffer_bdp_fraction=rng.choice([0.5, 1.0, 1.0, 1.5]),
            duration_s=duration,
            cms_width=rng.choice([4096, 4096, 4096, 1024]),
        )
        for _ in range(rng.randint(1, 3)):
            start = rng.uniform(0.0, duration / 3.0)
            spec.flows.append(FlowSpec(
                dst_index=rng.randrange(3),
                start_s=round(start, 3),
                duration_s=round(duration - start - rng.uniform(0.0, 1.0), 3),
                cc=rng.choice(["cubic", "cubic", "reno"]),
                rate_mbps=(round(rng.uniform(0.3, 0.8) * spec.bottleneck_mbps, 1)
                           if rng.random() < 0.2 else None),
                server_rcv_buf=(256 * 1024 if rng.random() < 0.15
                                else 4 * 1024 * 1024),
            ))
        for fl in spec.flows:
            if rng.random() < 0.35:
                spec.losses.append(LossSpec(
                    dst_index=fl.dst_index,
                    loss_rate=round(10 ** rng.uniform(-3.0, -2.0), 5),
                    seed=rng.randrange(1 << 30),
                ))
        if rng.random() < 0.25:
            spec.jitters.append(JitterSpec(
                dst_index=rng.randrange(3),
                delay_ns=0,
                jitter_ns=rng.randrange(50_000, 500_000),
                seed=rng.randrange(1 << 30),
            ))
        if rng.random() < 0.15:
            spec.reorders.append(ReorderSpec(
                dst_index=rng.randrange(3),
                probability=round(rng.uniform(0.002, 0.01), 4),
                extra_delay_ns=rng.randrange(1_000_000, 3_000_000),
                seed=rng.randrange(1 << 30),
            ))
        for _ in range(2):
            if rng.random() < 0.4:
                spec.bursts.append(BurstSpec(
                    at_s=round(rng.uniform(duration * 0.3, duration * 0.8), 3),
                    nbytes=rng.randrange(30_000, 150_000),
                    dst_index=rng.randrange(3),
                ))
        if rng.random() < 0.2 and spec.flows:
            spec.flaps.append(FlapSpec(
                dst_index=spec.flows[0].dst_index,
                start_s=round(rng.uniform(duration * 0.4, duration * 0.7), 3),
                duration_s=round(rng.uniform(0.05, 0.25), 3),
            ))
        return spec

    # -- derived properties ---------------------------------------------------

    @property
    def has_reordering(self) -> bool:
        return bool(self.reorders) or any(
            j.jitter_ns >= REORDER_JITTER_NS for j in self.jitters)

    @property
    def end_s(self) -> float:
        """When the run is over: workload end plus a drain trailer."""
        flow_end = max((f.start_s + f.duration_s for f in self.flows),
                       default=self.duration_s)
        return max(self.duration_s, flow_end) + 2.0

    # -- serialisation --------------------------------------------------------

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["schema"] = SPEC_SCHEMA
        return doc

    @classmethod
    def from_jsonable(cls, doc: dict) -> "ScenarioSpec":
        doc = dict(doc)
        schema = doc.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(f"unknown scenario schema {schema!r}")
        doc["flows"] = [FlowSpec(**f) for f in doc.get("flows", [])]
        doc["losses"] = [LossSpec(**s) for s in doc.get("losses", [])]
        doc["jitters"] = [JitterSpec(**s) for s in doc.get("jitters", [])]
        doc["reorders"] = [ReorderSpec(**s) for s in doc.get("reorders", [])]
        doc["bursts"] = [BurstSpec(**s) for s in doc.get("bursts", [])]
        doc["flaps"] = [FlapSpec(**s) for s in doc.get("flaps", [])]
        return cls(**doc)

    def clone(self, **changes) -> "ScenarioSpec":
        """A structurally independent copy (lists are not shared)."""
        base = replace(
            self,
            rtts_ms=list(self.rtts_ms),
            flows=[replace(f) for f in self.flows],
            losses=[replace(s) for s in self.losses],
            jitters=[replace(s) for s in self.jitters],
            reorders=[replace(s) for s in self.reorders],
            bursts=[replace(s) for s in self.bursts],
            flaps=[replace(s) for s in self.flaps],
        )
        return replace(base, **changes) if changes else base

    # -- assembly -------------------------------------------------------------

    def build(self, copy_recorder=None) -> "ValidationRun":
        config = ScenarioConfig(
            bottleneck_mbps=self.bottleneck_mbps,
            rtts_ms=tuple(self.rtts_ms),
            reference_rtt_ms=max(self.rtts_ms),
            buffer_bdp_fraction=self.buffer_bdp_fraction,
            monitor_overrides={
                "long_flow_bytes": self.long_flow_bytes,
                "cms_width": self.cms_width,
                "histograms_enabled": self.histograms,
                "forensics_enabled": self.forensics,
                "batched_path": self.batched_path,
            },
        )
        scenario = Scenario(config, with_perfsonar=False,
                            copy_recorder=copy_recorder)
        for fl in self.flows:
            scenario.add_flow(
                fl.dst_index,
                start_s=fl.start_s,
                duration_s=fl.duration_s,
                cc=fl.cc,
                rate_mbps=fl.rate_mbps,
                server_rcv_buf=fl.server_rcv_buf,
            )
        for loss in self.losses:
            scenario.add_path_loss(loss.dst_index, loss.loss_rate,
                                   seed=loss.seed, data_only=True)
        for jitter in self.jitters:
            link = _access_link(scenario, jitter.dst_index)
            link.impairments.append(DelayImpairment(
                jitter.delay_ns, jitter.jitter_ns, seed=jitter.seed))
        for reorder in self.reorders:
            link = _access_link(scenario, reorder.dst_index)
            link.impairments.append(ReorderImpairment(
                reorder.probability, reorder.extra_delay_ns, seed=reorder.seed))
        for flap in self.flaps:
            link = _access_link(scenario, flap.dst_index)
            link.impairments.append(FlapImpairment(
                scenario.sim, seconds(flap.start_s), seconds(flap.duration_s)))
        for burst in self.bursts:
            scenario.inject_burst(burst.at_s, burst.nbytes,
                                  dst_index=burst.dst_index,
                                  pkt_len=burst.pkt_len)

        stream = EventStream()
        observe_topology(scenario.topology, stream=stream)
        oracle = GroundTruthOracle(
            stream, rtt_max_age_ns=scenario.monitor.config.rtt_max_age_ns)
        return ValidationRun(spec=self, scenario=scenario,
                             stream=stream, oracle=oracle)


def _access_link(scenario: Scenario, dst_index: int):
    """The external DTN's access link (same lookup as add_path_loss)."""
    dtn = scenario.topology.external_dtns[dst_index]
    for link in scenario.topology.links:
        if link.a.owner is dtn or link.b.owner is dtn:
            return link
    raise LookupError(f"no access link found for dtn{dst_index + 1}")


@dataclass
class ValidationRun:
    """A built scenario with its oracle, ready to run and check."""

    spec: ScenarioSpec
    scenario: Scenario
    stream: EventStream
    oracle: GroundTruthOracle

    def run(self) -> None:
        self.scenario.run(self.spec.end_s)

    def check(self, clock_skew_ns: int = 0):
        """The differential check (``clock_skew_ns``: how far archived
        timestamps may be off, see :class:`DifferentialChecker`)."""
        from repro.validation.checker import DifferentialChecker
        report = DifferentialChecker(
            self.scenario.control_plane, self.oracle,
            reordering=self.spec.has_reordering, clock_skew_ns=clock_skew_ns,
        ).check()
        if not report.passed:
            # Provenance trigger: a differential mismatch freezes the
            # fine window so the packets behind the bad measurement are
            # preserved for diagnosis (no-op when tracing is off).
            from repro.telemetry import provenance
            trace = provenance.tracer()
            if trace is not None:
                trace.fire("oracle-mismatch", self.scenario.sim.now,
                           seed=self.spec.seed,
                           failures=[str(f) for f in report.failures][:5])
        return report
