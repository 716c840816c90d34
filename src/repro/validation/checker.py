"""Differential checker: P4 registers/reports vs oracle ground truth.

Every check compares a value the P4 side produced (a register read via
the runtime API, a control-plane sample series or a digest-derived
report, both read back from the archive) against the exact number the
:class:`GroundTruthOracle` accumulated from the event stream, under the
tolerance declared for that metric in :mod:`repro.validation.tolerances`.

What is checked, and why the comparison is sound:

- **counters** (exact): a claimed slot's ``flow_bytes``/``flow_pkts``
  accumulate IPv4 total lengths of ingress-TAP arrivals from the claim
  packet onward; the oracle counts the same arrivals at the same
  observation point, windowed to ``ts >= first_seen_ns``.
- **loss**: the ``pkt_loss`` register counts sequence regressions (a
  retransmission proxy) for the whole run.  It must equal the oracle's
  reference cell exactly (``loss_regressions``: the same scalar stage at
  one cell per flow, so this measures aliasing, not the rule), and stay
  within the declared envelope of dropped *data* packets (``loss_proxy``,
  path truth); deliberate reordering widens that envelope.
- **RTT**: every control-plane sample must sit inside the [min, max]
  envelope (widened) of the reference's per-packet samples and near one
  of them, and the ``rtt_count`` register can never exceed the
  reference's match count by more than the declared slack — the product
  stash can lose matches but not invent them.  A bug in the scalar
  stages is in the reference too: ``--compare-paths`` and the path-truth
  checks (``loss_proxy``, queue residency, drops) are what catch it.
- **queue delay**: the per-flow peak occupancy ever reported must be
  backed by true residency *somewhere* (a colliding flow can legitimately
  inflate a shared register cell, so the upper bound uses the global
  max); conversely a flow whose true peak was substantial must have been
  seen at all (coverage floor).
- **sketch**: flows whose slot was never owned must never be
  under-counted by the CMS; overestimates and long-flow claims are
  bounded by the documented ``eps*N`` false-positive envelope.
- **tracking**: a TCP flow that moved several multiples of the long-flow
  threshold must have been claimed (unless its slot was stolen) — the
  "monitor silently dead" regression guard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.core.config import MetricKind
from repro.core.control_plane import MonitorControlPlane, TrackedFlow
from repro.core.flow_table import slot_of
from repro.netsim.packet import PROTO_TCP, FiveTuple
from repro.netsim.units import NS_PER_S
from repro.p4.hashes import crc32_tuple
from repro.validation.oracle import FlowTruth, GroundTruthOracle
from repro.validation.tolerances import (
    COUNTERS,
    LONG_FLOW_CLAIM,
    LOSS_PKTS,
    LOSS_PKTS_REORDER,
    LOSS_REGRESSIONS,
    MICROBURST_MS,
    QUEUE_DELAY_MS,
    RTT_COVERAGE,
    RTT_DISTRIBUTION_MS,
    RTT_MS,
    SKETCH,
)

NS_PER_MS = 1_000_000


@dataclass
class CheckResult:
    """One comparison: a P4-side value against its oracle truth."""

    metric: str
    subject: str                # flow label or "global"
    p4_value: float
    truth_value: float
    tolerance: str
    passed: bool
    note: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        line = (f"[{mark}] {self.metric:<22} {self.subject:<28} "
                f"p4={self.p4_value:g} truth={self.truth_value:g} "
                f"({self.tolerance})")
        return line + (f" — {self.note}" if self.note else "")

    def to_jsonable(self) -> dict:
        return {
            "metric": self.metric,
            "subject": self.subject,
            "p4_value": self.p4_value,
            "truth_value": self.truth_value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    """All check results of one scenario run."""

    results: List[CheckResult] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    def skip(self, reason: str) -> None:
        self.skipped.append(reason)

    def summary(self) -> str:
        lines = [str(r) for r in self.results]
        lines.append(
            f"{len(self.results)} checks, {len(self.failures)} failed, "
            f"{len(self.skipped)} skipped"
        )
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [r.to_jsonable() for r in self.results],
            "skipped": list(self.skipped),
        }


class DifferentialChecker:
    """Compares a finished run's P4 state against its oracle."""

    def __init__(
        self,
        control_plane: MonitorControlPlane,
        oracle: GroundTruthOracle,
        reordering: bool = False,
        clock_skew_ns: int = 0,
    ) -> None:
        self.cp = control_plane
        self.oracle = oracle
        # How far an archived sample's timestamp may sit from its tick:
        # an injected clock-skew fault moves ``@timestamp`` in transit.
        self.clock_skew_ns = clock_skew_ns
        self.runtime = control_plane.runtime
        self.config = control_plane.config
        # Scenarios that deliberately reorder (reorder impairment, jitter
        # >= 1 ms) get the widened loss envelope.
        self.loss_tol = LOSS_PKTS_REORDER if reordering else LOSS_PKTS

    # -- entry point ---------------------------------------------------------

    def check(self) -> ValidationReport:
        report = ValidationReport()
        flows = self.cp.flows.values()
        self._readers = {attr: Counter(getattr(f, attr) for f in flows)
                         for attr in ("slot", "rslot")}
        # (t_s, value) of each flow's archived RTT and occupancy samples,
        # in time order whatever order the archive took them in.
        self._series = {kind: {} for kind in (MetricKind.RTT, MetricKind.QUEUE_OCCUPANCY)}
        for kind, by_flow in self._series.items():
            for s in self.cp.flow_samples[kind]:
                by_flow.setdefault(s.flow_id, []).append((s.time_ns / NS_PER_S, s.value))
            for series in by_flow.values():
                series.sort()
        for flow in flows:
            truth = self._truth_for(flow)
            if truth is None:
                report.add(CheckResult(
                    metric="tracking", subject=self._label(flow),
                    p4_value=1.0, truth_value=0.0, tolerance="exact",
                    passed=False,
                    note="tracked flow never seen by the oracle",
                ))
                continue
            self._check_counters(flow, truth, report)
            self._check_loss(flow, truth, report)
            self._check_rtt(flow, truth, report)
            self._check_rtt_distribution(flow, truth, report)
            self._check_queue(flow, truth, report)
            self._check_claim(flow, truth, report)
        self._check_tracking_coverage(report)
        self._check_sketch(report)
        self._check_microbursts(report)
        return report

    # -- per-flow truth lookup ------------------------------------------------

    def _truth_for(self, flow: TrackedFlow) -> Optional[FlowTruth]:
        """TrackedFlow carries no protocol; the parser admits only TCP."""
        return self.oracle.truth_for(FiveTuple(
            flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, PROTO_TCP))

    @staticmethod
    def _label(flow: TrackedFlow) -> str:
        return (f"{flow.src_ip & 0xFF}.{flow.src_port}->"
                f"{flow.dst_ip & 0xFF}.{flow.dst_port}")

    def _shares_index(self, flow: TrackedFlow, attr: str) -> bool:
        """True when another tracked flow reads the same ``slot`` /
        ``rslot`` cell — the check must then be skipped, not failed,
        because the cell holds a sum over both flows."""
        return self._readers[attr][getattr(flow, attr)] > 1

    # -- individual checks ----------------------------------------------------

    def _check_counters(self, flow: TrackedFlow, truth: FlowTruth,
                        report: ValidationReport) -> None:
        if flow.evicted:
            report.skip(f"counters {self._label(flow)}: slot released by eviction")
            return
        pkts, nbytes = truth.packets_since(flow.first_seen_ns)
        p4_bytes = self.runtime.read_register("flow_bytes", flow.slot)
        p4_pkts = self.runtime.read_register("flow_pkts", flow.slot)
        report.add(CheckResult(
            metric="flow_bytes", subject=self._label(flow),
            p4_value=float(p4_bytes), truth_value=float(nbytes),
            tolerance=COUNTERS.describe(),
            passed=COUNTERS.allows(p4_bytes, nbytes),
        ))
        report.add(CheckResult(
            metric="flow_pkts", subject=self._label(flow),
            p4_value=float(p4_pkts), truth_value=float(pkts),
            tolerance=COUNTERS.describe(),
            passed=COUNTERS.allows(p4_pkts, pkts),
        ))

    def _check_loss(self, flow: TrackedFlow, truth: FlowTruth,
                    report: ValidationReport) -> None:
        if self._shares_index(flow, "slot"):
            report.skip(f"loss {self._label(flow)}: pkt_loss cell shared")
            return
        p4_loss = self.runtime.read_register("pkt_loss", flow.slot)
        # (1) Implementation check, exact: the register must equal the
        # reference's cell, the same rule run on the same arrivals.
        report.add(CheckResult(
            metric="loss_regressions", subject=self._label(flow),
            p4_value=float(p4_loss), truth_value=float(truth.regressions),
            tolerance=LOSS_REGRESSIONS.describe(),
            passed=LOSS_REGRESSIONS.allows(p4_loss, truth.regressions),
            note=LOSS_REGRESSIONS.note,
        ))
        # (2) Semantic proxy check against true drops: bounded above by
        # the declared envelope, plus a coverage floor when drops were
        # plentiful (a dead counter must not pass).
        true_drops = truth.drops_data
        upper_ok = p4_loss <= self.loss_tol.upper(true_drops)
        floor = 0.25 * true_drops - 3.0
        floor_ok = true_drops < 10 or p4_loss >= floor
        report.add(CheckResult(
            metric="loss_proxy", subject=self._label(flow),
            p4_value=float(p4_loss), truth_value=float(true_drops),
            tolerance=f"<= {self.loss_tol.upper(true_drops):.0f}, "
                      f">= {max(0.0, floor):.0f}",
            passed=upper_ok and floor_ok,
            note=self.loss_tol.metric,
        ))

    def _check_rtt(self, flow: TrackedFlow, truth: FlowTruth,
                   report: ValidationReport) -> None:
        truth_ms = [r / NS_PER_MS for r in truth.expected_rtt_values_ns]
        cp_ms = [v for _, v in self._series[MetricKind.RTT].get(flow.flow_id, ())]
        if self._shares_index(flow, "rslot"):
            report.skip(f"rtt {self._label(flow)}: rtt cell shared")
            return
        if len(truth_ms) < 5 or len(cp_ms) < 2:
            report.skip(f"rtt {self._label(flow)}: too few samples "
                        f"(truth={len(truth_ms)}, cp={len(cp_ms)})")
        else:
            lo = RTT_MS.lower(min(truth_ms))
            hi = RTT_MS.upper(max(truth_ms))
            outside = [v for v in cp_ms if not lo <= v <= hi]
            report.add(CheckResult(
                metric="rtt_envelope", subject=self._label(flow),
                p4_value=float(outside[0]) if outside else float(cp_ms[0]),
                truth_value=float(min(truth_ms)),
                tolerance=f"[{lo:.2f}, {hi:.2f}] ms",
                passed=not outside,
                note=f"{len(outside)}/{len(cp_ms)} samples outside envelope"
                     if outside else f"{len(cp_ms)} samples in envelope",
            ))
            self._check_rtt_locality(flow, truth, report)
        # Coverage: the stash can only lose matches, never invent them.
        self._check_rtt_coverage(flow, truth, report)

    #: A control-plane RTT sample reads the *latest* register match, so it
    #: must (nearly) equal some true per-packet RTT shortly before the
    #: tick; the window absorbs register staleness from missed matches.
    RTT_LOCALITY_WINDOW_NS = 3_000_000_000

    def _check_rtt_locality(self, flow: TrackedFlow, truth: FlowTruth,
                            report: ValidationReport) -> None:
        series = self._series[MetricKind.RTT].get(flow.flow_id, ())
        unmatched: List[Tuple[float, float]] = []
        checked = 0
        skew = self.clock_skew_ns
        for t_s, value_ms in series:
            tick_ns = int(t_s * 1e9)
            window = [r / NS_PER_MS for ts, r in truth.expected_rtt_samples
                      if tick_ns - self.RTT_LOCALITY_WINDOW_NS - skew < ts
                      <= tick_ns + skew]
            if not window:
                continue  # register legitimately stale; nothing to match
            checked += 1
            if not any(RTT_MS.allows(value_ms, w) for w in window):
                unmatched.append((t_s, value_ms))
        if not checked:
            report.skip(f"rtt locality {self._label(flow)}: no tick had "
                        f"truth samples in window")
            return
        first_bad = unmatched[0] if unmatched else (0.0, 0.0)
        report.add(CheckResult(
            metric="rtt_locality", subject=self._label(flow),
            p4_value=first_bad[1] if unmatched else float(checked),
            truth_value=float(len(unmatched)),
            tolerance=f"each sample within {RTT_MS.describe()} of a truth "
                      f"sample <= {self.RTT_LOCALITY_WINDOW_NS / 1e9:.0f}s back",
            passed=not unmatched,
            note=(f"{len(unmatched)}/{checked} ticks unmatched, first at "
                  f"t={first_bad[0]:.2f}s" if unmatched
                  else f"{checked} ticks matched"),
        ))

    #: Percentiles over fewer samples than this are too noisy to compare.
    RTT_DISTRIBUTION_MIN_SAMPLES = 16

    def _check_rtt_distribution(self, flow: TrackedFlow, truth: FlowTruth,
                                report: ValidationReport) -> None:
        """Histogram-derived p50/p99 vs numpy percentiles of the reference's
        per-packet RTT samples — the distribution-level counterpart of
        the envelope/median checks, active only when the run was built
        with data-plane histograms."""
        ext = getattr(self.cp, "histograms", None)
        if ext is None:
            return
        if self._shares_index(flow, "rslot"):
            report.skip(f"rtt distribution {self._label(flow)}: "
                        f"histogram row shared")
            return
        import numpy as np
        from repro.p4.histogram import bin_quantile
        hist = self.cp.monitor.rtt_loss.rtt_hist
        idx = flow.rslot
        # Extracted windows plus whatever still sits in the banks: the
        # complete all-time row, regardless of extraction phase.
        counts = ext.rtt_cumulative[idx] + hist.snapshot()[idx]
        total = int(counts.sum())
        truth_ms = [r / NS_PER_MS for r in truth.expected_rtt_values_ns]
        if (total < self.RTT_DISTRIBUTION_MIN_SAMPLES
                or len(truth_ms) < self.RTT_DISTRIBUTION_MIN_SAMPLES):
            report.skip(f"rtt distribution {self._label(flow)}: too few "
                        f"samples (hist={total}, truth={len(truth_ms)})")
            return
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            p4_ms = bin_quantile(hist.edges, counts, q) / NS_PER_MS
            tr_ms = float(np.percentile(truth_ms, q * 100))
            report.add(CheckResult(
                metric=f"rtt_distribution_{name}", subject=self._label(flow),
                p4_value=p4_ms, truth_value=tr_ms,
                tolerance=RTT_DISTRIBUTION_MS.describe(),
                passed=RTT_DISTRIBUTION_MS.allows(p4_ms, tr_ms),
                note=RTT_DISTRIBUTION_MS.note,
            ))

    def _check_rtt_coverage(self, flow: TrackedFlow, truth: FlowTruth,
                            report: ValidationReport) -> None:
        p4_count = self.runtime.read_register("rtt_count", flow.rslot)
        true_count = len(truth.expected_rtt_samples)
        report.add(CheckResult(
            metric="rtt_sample_count", subject=self._label(flow),
            p4_value=float(p4_count), truth_value=float(true_count),
            tolerance=f"<= {RTT_COVERAGE.upper(true_count):.0f}",
            passed=p4_count <= RTT_COVERAGE.upper(true_count),
        ))

    def _check_queue(self, flow: TrackedFlow, truth: FlowTruth,
                     report: ValidationReport) -> None:
        max_delay_ns = self.config.max_queue_delay_ns()
        occ_series = [v for _, v in
                      self._series[MetricKind.QUEUE_OCCUPANCY].get(flow.flow_id, ())]
        if not occ_series:
            report.skip(f"queue {self._label(flow)}: no occupancy samples")
            return
        p4_peak_ms = max(occ_series) / 100.0 * max_delay_ns / NS_PER_MS
        global_truth_ms = self.oracle.global_max_qdelay_ns / NS_PER_MS
        # Upper bound: a matched TAP pair is exact, and a colliding flow
        # can only contribute residency that truly happened — so no
        # reported peak may exceed the widened global true maximum.
        report.add(CheckResult(
            metric="queue_delay_peak_ms", subject=self._label(flow),
            p4_value=p4_peak_ms, truth_value=global_truth_ms,
            tolerance=f"<= {QUEUE_DELAY_MS.upper(global_truth_ms):.3f} ms",
            passed=p4_peak_ms <= QUEUE_DELAY_MS.upper(global_truth_ms),
        ))
        # Coverage floor: a flow that truly sat in the queue must not be
        # reported as (near) zero.  Only asserted when the truth peak is
        # comfortably above the slack, and at half strength: the peak
        # packet itself can be missed (stash eviction) without the
        # register missing the congestion episode around it.
        flow_truth_ms = truth.max_qdelay_ns / NS_PER_MS
        if flow_truth_ms > 2 * QUEUE_DELAY_MS.abs_slack:
            floor = 0.5 * flow_truth_ms - QUEUE_DELAY_MS.abs_slack
            report.add(CheckResult(
                metric="queue_delay_coverage", subject=self._label(flow),
                p4_value=p4_peak_ms, truth_value=flow_truth_ms,
                tolerance=f">= {floor:.3f} ms",
                passed=p4_peak_ms >= floor,
            ))

    def _check_claim(self, flow: TrackedFlow, truth: FlowTruth,
                     report: ValidationReport) -> None:
        """Long-flow claim false-positive bound: true payload up to and
        including the claim packet must approach the threshold."""
        cms = self.cp.monitor.flow_table.cms
        eps_n = (2.718281828 / cms.width) * self.oracle.total_tcp_payload_bytes
        floor = self.config.long_flow_bytes - 2 * eps_n
        true_at_claim = truth.payload_bytes_until(flow.first_seen_ns + 1)
        report.add(CheckResult(
            metric="long_flow_claim", subject=self._label(flow),
            p4_value=float(self.config.long_flow_bytes),
            truth_value=float(true_at_claim),
            tolerance=f"true bytes >= {floor:.0f}",
            passed=true_at_claim >= floor,
            note=LONG_FLOW_CLAIM.note,
        ))

    def _check_tracking_coverage(self, report: ValidationReport) -> None:
        """A TCP flow that moved >> threshold payload must be tracked —
        unless another flow owns its slot (documented collision policy)."""
        threshold = self.config.long_flow_bytes
        for ft, truth in self.oracle.flows.items():
            if not truth.is_tcp or truth.payload_bytes < 4 * threshold:
                continue
            tracked = self.cp.flow_by_tuple(ft.src_ip, ft.dst_ip,
                                            ft.src_port, ft.dst_port)
            if tracked is not None:
                continue
            slot = slot_of(crc32_tuple(ft), self.config.flow_slots)
            stolen = any(f.slot == slot for f in self.cp.flows.values())
            report.add(CheckResult(
                metric="tracking", subject=str(ft),
                p4_value=0.0, truth_value=float(truth.payload_bytes),
                tolerance=f">= 4x threshold ({4 * threshold}) must claim",
                passed=stolen,
                note="slot owned by another flow" if stolen
                     else "heavy flow never claimed a slot",
            ))

    def _check_sketch(self, report: ValidationReport) -> None:
        """CMS no-under-count + bounded-over-count for flows whose slot was
        never owned (so every payload packet was inserted)."""
        cms = self.cp.monitor.flow_table.cms
        owned_slots = {f.slot for f in self.cp.flows.values()}
        n_total = self.oracle.total_tcp_payload_bytes
        over_bound = 2 * (2.718281828 / cms.width) * n_total
        checked = 0
        for ft, truth in self.oracle.flows.items():
            if truth.payload_bytes == 0 or not truth.is_tcp:
                continue  # the parser rejects non-TCP; UDP never inserts
            slot = slot_of(crc32_tuple(ft), self.config.flow_slots)
            if slot in owned_slots:
                continue  # inserts stopped once the slot was claimed
            if self.runtime.program.registers["flow_key"].read(slot) != 0:
                continue
            estimate = cms.query_tuple(ft)
            checked += 1
            report.add(CheckResult(
                metric="sketch_no_undercount", subject=str(ft),
                p4_value=float(estimate), truth_value=float(truth.payload_bytes),
                tolerance=">= truth",
                passed=estimate >= truth.payload_bytes,
                note=SKETCH.note,
            ))
            report.add(CheckResult(
                metric="sketch_overestimate", subject=str(ft),
                p4_value=float(estimate), truth_value=float(truth.payload_bytes),
                tolerance=f"<= truth + {over_bound:.0f}",
                passed=estimate <= truth.payload_bytes + over_bound,
            ))
        if not checked:
            report.skip("sketch: every payload-carrying flow claimed a slot")

    def _check_microbursts(self, report: ValidationReport) -> None:
        """Every reported microburst peak must be backed by true queue
        residency inside (a slightly padded copy of) its window."""
        pad_ns = NS_PER_MS
        bursts = sorted(self.cp.microbursts, key=attrgetter("start_ns", "port_id"))
        for i, event in enumerate(bursts):
            truth_peak = self.oracle.max_qdelay_in_window(
                event.start_ns - pad_ns,
                event.start_ns + event.duration_ns + pad_ns,
            )
            p4_ms = event.peak_queue_delay_ns / NS_PER_MS
            truth_ms = truth_peak / NS_PER_MS
            report.add(CheckResult(
                metric="microburst_peak_ms", subject=f"burst#{i}",
                p4_value=p4_ms, truth_value=truth_ms,
                tolerance=f"<= {MICROBURST_MS.upper(truth_ms):.3f} ms",
                passed=p4_ms <= MICROBURST_MS.upper(truth_ms),
            ))
