"""The chaos harness: one seeded workload + one fault schedule.

A :class:`ChaosSpec` pairs a validation :class:`~repro.validation.
scenarios.ScenarioSpec` (the traffic) with a :class:`~repro.resilience.
schedule.FaultSchedule` (the failures) and the delivery knobs under
test.  :func:`run_chaos` installs the injector, assembles the full
report path — control plane → :class:`~repro.resilience.delivery.
ResilientShipper` → faulty transport → Logstash TCP input → OpenSearch
store — runs the workload, drains the spool, and settles the books:

- **no acked-report loss**: every block the shipper acknowledged is in
  the archive, all its rows under its ``(_shipper, _seq)`` envelope;
- **exactly-once archive**: no envelope has more rows archived than
  were acked;
- **no silent loss**: unacknowledged blocks are either still spooled
  (counted) or were counted as dead-letter evictions — nothing vanishes;
- **measurements stay honest**: the differential checker re-validates
  the run against the ground-truth oracle, faults and all.

A schedule with a ``cp_crash`` window (see :func:`with_crash`) makes the
same run a crash run: the control plane is checkpointed, killed and
restarted under a supervisor, and the result carries a
:class:`Recovery` section on top of the same books.

Everything is deterministic: same spec (or same ``--schedule`` +
``--seed``) ⇒ byte-identical archive, digest and all.

This module deliberately lives outside ``repro.resilience``'s
``__init__`` exports: it imports the experiment/validation stack, which
itself imports :mod:`repro.resilience.faults` — keeping it lazy keeps
the package import-cycle-free.
"""

from __future__ import annotations

import hashlib
import json
import logging
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.control_plane import MonitorControlPlane
from repro.netsim.units import millis, seconds
from repro.perfsonar.archiver import Archiver
from repro.resilience import checkpoint
from repro.resilience.breaker import CircuitBreaker, DegradationPolicy
from repro.resilience.delivery import (
    DeliveryConfig,
    FaultyTransport,
    ResilientShipper,
)
from repro.resilience.faults import FaultInjector, install, uninstall
from repro.resilience.schedule import FaultSchedule, FaultWindow, bundled_schedules
from repro.resilience.supervisor import Supervisor, SupervisorPolicy
from repro.resilience.watchdog import ExtractionWatchdog
from repro.validation.scenarios import FlowSpec, ScenarioSpec

log = logging.getLogger("repro.resilience.chaos")

CHAOS_SCHEMA = "repro-chaos-v1"

#: Drain-loop step: how often the settle loop kicks the spool.
_DRAIN_STEP_S = 0.25


@dataclass
class ChaosSpec:
    """Everything needed to reproduce one chaos run."""

    scenario: ScenarioSpec
    schedule: FaultSchedule
    drain_s: float = 4.0
    spool_limit: int = 512
    dead_letter_limit: int = 256
    failure_threshold: int = 3
    open_interval_ms: float = 300.0
    degraded_interval_scale: float = 4.0

    @classmethod
    def from_seed(cls, seed: int) -> "ChaosSpec":
        """Derive workload and fault schedule from one integer (the
        CI fuzz entry point)."""
        scenario = ScenarioSpec.from_seed(seed)
        return cls(scenario=scenario,
                   schedule=FaultSchedule.from_seed(
                       seed, duration_s=scenario.duration_s))

    # -- serialisation --------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "schema": CHAOS_SCHEMA,
            "scenario": self.scenario.to_jsonable(),
            "schedule": self.schedule.to_jsonable(),
            "drain_s": self.drain_s,
            "spool_limit": self.spool_limit,
            "dead_letter_limit": self.dead_letter_limit,
            "failure_threshold": self.failure_threshold,
            "open_interval_ms": self.open_interval_ms,
            "degraded_interval_scale": self.degraded_interval_scale,
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "ChaosSpec":
        doc = dict(doc)
        schema = doc.pop("schema", CHAOS_SCHEMA)
        if schema != CHAOS_SCHEMA:
            raise ValueError(f"unknown chaos schema {schema!r}")
        doc["scenario"] = ScenarioSpec.from_jsonable(doc["scenario"])
        doc["schedule"] = FaultSchedule.from_jsonable(doc["schedule"])
        return cls(**doc)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_jsonable(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ChaosSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_jsonable(json.load(fh))


def _small_workload(seed: int) -> ScenarioSpec:
    """A fixed two-flow workload for the bundled schedules: long enough
    to cover every bundled fault window, short enough for tests."""
    spec = ScenarioSpec(seed=seed, bottleneck_mbps=20.0, duration_s=5.0)
    spec.flows.append(FlowSpec(dst_index=0, start_s=0.1, duration_s=4.5))
    spec.flows.append(FlowSpec(dst_index=1, start_s=0.4, duration_s=4.0))
    return spec


def bundled_chaos(seed: int = 7) -> Dict[str, ChaosSpec]:
    """The named bundled schedules, each paired with the fixed small
    workload — what ``repro-experiments chaos --schedule <name>`` runs."""
    return {
        name: ChaosSpec(scenario=_small_workload(seed),
                        schedule=sched.clone(seed=seed))
        for name, sched in bundled_schedules().items()
    }


@dataclass
class Recovery:
    """The crash-recovery books of a run whose schedule has a
    ``cp_crash`` window."""

    kills: int = 0
    restarts: int = 0
    failed_attempts: int = 0
    escalations: int = 0
    gave_up: bool = False
    checkpoints_written: int = 0
    checkpoints_skipped: int = 0
    conservation_failures: List[str] = field(default_factory=list)
    twin_failures: List[str] = field(default_factory=list)

    def failures(self) -> List[str]:
        out: List[str] = []
        if self.gave_up:
            out.append("supervisor gave up restarting the control plane")
        if self.kills < 1:
            out.append("no cp_crash kill was ever injected")
        elif self.restarts != self.kills:
            out.append(f"{self.kills} kills but {self.restarts} restarts")
        out.extend(self.conservation_failures)
        out.extend(self.twin_failures)
        return out


@dataclass
class ChaosResult:
    """The settled books of one chaos run.  ``recovery`` is set only
    when the schedule crashed the control plane; ``run``,
    ``oracle_report`` and ``stacks`` (every control-plane incarnation,
    oldest first) are kept for inspection and never serialised."""

    spec: ChaosSpec
    shipped: int = 0
    acked: int = 0
    archived_unique: int = 0
    archived_duplicate_seqs: List[int] = field(default_factory=list)
    missing_acked_seqs: List[int] = field(default_factory=list)
    still_pending: int = 0
    dead_letter_evictions: int = 0
    duplicates_dropped: int = 0
    malformed_dropped: int = 0
    shipper_stats: dict = field(default_factory=dict)
    injections: Dict[str, int] = field(default_factory=dict)
    breaker_transitions: List[tuple] = field(default_factory=list)
    breaker_summary: str = ""
    degrade_events: int = 0
    restore_events: int = 0
    watchdog_stalls: int = 0
    ticks_deferred: int = 0
    catchup_ticks: int = 0
    reports_suppressed: int = 0
    oracle_passed: bool = True
    oracle_failures: List[str] = field(default_factory=list)
    oracle_checks: int = 0
    archive_digest: str = ""
    recovery: Optional[Recovery] = None
    run: object = field(default=None, repr=False, compare=False)
    oracle_report: object = field(default=None, repr=False, compare=False)
    stacks: list = field(default_factory=list, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        out: List[str] = []
        if self.missing_acked_seqs:
            out.append(f"{len(self.missing_acked_seqs)} acked blocks "
                       f"missing from the archive "
                       f"(first: {self.missing_acked_seqs[:5]})")
        if self.archived_duplicate_seqs:
            out.append(f"{len(self.archived_duplicate_seqs)} sequences "
                       f"archived beyond their acked rows "
                       f"(first: {self.archived_duplicate_seqs[:5]})")
        if self.dead_letter_evictions:
            out.append(f"{self.dead_letter_evictions} blocks lost to "
                       f"dead-letter eviction")
        if self.still_pending:
            out.append(f"{self.still_pending} blocks still spooled after "
                       f"the drain window")
        if not self.oracle_passed:
            out.append(f"oracle: {len(self.oracle_failures)} differential "
                       f"checks failed")
        if self.recovery is not None:
            out.extend(self.recovery.failures())
        return out

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"chaos [{verdict}] seed={self.spec.schedule.seed} "
            f"faults={self.spec.schedule!s}",
            f"  delivery: shipped={self.shipped} acked={self.acked} "
            f"archived={self.archived_unique} "
            f"dedup-dropped={self.duplicates_dropped} "
            f"retries={self.shipper_stats.get('retries', 0)} "
            f"spool-peak={self.shipper_stats.get('spool_high_watermark', 0)}",
            f"  faults injected: "
            + (", ".join(f"{k}={v}" for k, v in sorted(self.injections.items()))
               or "none"),
            f"  {self.breaker_summary}; degrade/restore="
            f"{self.degrade_events}/{self.restore_events}; "
            f"suppressed={self.reports_suppressed}",
            f"  cp: deferred={self.ticks_deferred} catchup={self.catchup_ticks} "
            f"watchdog-stalls={self.watchdog_stalls}",
            f"  oracle: {self.oracle_checks} checks, "
            f"{len(self.oracle_failures)} failed",
            f"  archive sha256={self.archive_digest[:16]}…",
        ]
        r = self.recovery
        if r is not None:
            lines.insert(1, (
                f"  recovery: kills={r.kills} restarts={r.restarts} "
                f"failed-attempts={r.failed_attempts} "
                f"escalations={r.escalations} "
                f"checkpoints={r.checkpoints_written} "
                f"(+{r.checkpoints_skipped} rate-limited)"))
        for failure in self.failures():
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        doc = {
            "schema": CHAOS_SCHEMA,
            "passed": self.passed,
            "failures": self.failures(),
            "spec": self.spec.to_jsonable(),
            "shipped": self.shipped,
            "acked": self.acked,
            "archived_unique": self.archived_unique,
            "archived_duplicate_seqs": self.archived_duplicate_seqs,
            "missing_acked_seqs": self.missing_acked_seqs,
            "still_pending": self.still_pending,
            "dead_letter_evictions": self.dead_letter_evictions,
            "duplicates_dropped": self.duplicates_dropped,
            "malformed_dropped": self.malformed_dropped,
            "shipper": self.shipper_stats,
            "injections": self.injections,
            "breaker_transitions": [
                [t, old.value, new.value]
                for t, old, new in self.breaker_transitions],
            "degrade_events": self.degrade_events,
            "restore_events": self.restore_events,
            "watchdog_stalls": self.watchdog_stalls,
            "ticks_deferred": self.ticks_deferred,
            "catchup_ticks": self.catchup_ticks,
            "reports_suppressed": self.reports_suppressed,
            "oracle_passed": self.oracle_passed,
            "oracle_failures": self.oracle_failures,
            "oracle_checks": self.oracle_checks,
            "archive_digest": self.archive_digest,
        }
        if self.recovery is not None:
            doc.update(asdict(self.recovery))
        return doc


def _archive_digest(store) -> str:
    """Canonical sha256 over every archived document (sorted keys,
    sorted indices) — the byte-reproducibility witness."""
    h = hashlib.sha256()
    for index in store.indices:
        for doc in store.search(index):
            h.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _settle(store, acked: Dict[tuple, int]) -> tuple:
    """Settle an archive against an ack book, ``(source, seq) -> rows``:
    the envelopes archived, and the seqs with more rows archived than
    acked (duplicates; unacked means 0) and with fewer (losses)."""
    archived = Counter((doc.get("_shipper"), doc["_seq"]) for index in store.indices
                       for doc in store.search(index) if "_seq" in doc)
    duplicates = sorted({key[1] for key, n in archived.items()
                         if n > acked.get(key, 0)})
    missing = sorted(key[1] for key, n in acked.items()
                     if archived.get(key, 0) < n)
    return len(archived), duplicates, missing


@dataclass
class _Stack:
    """One control-plane incarnation: what a process holds, what dies
    with it.  ``restored_evictions`` is the dead-letter eviction count
    its checkpoint handed it, so each incarnation counts only its own."""

    cp: object
    shipper: ResilientShipper
    breaker: CircuitBreaker
    policy: DegradationPolicy
    watchdog: ExtractionWatchdog
    restored_evictions: int = 0


def _build_stack(spec: ChaosSpec, sim, archiver: Archiver, cp, source: str,
                 doc: Optional[dict] = None) -> _Stack:
    """The delivery path under test, assembled back to front and wired
    to ``cp`` — restored from checkpoint ``doc`` first, when given."""
    breaker = CircuitBreaker(
        failure_threshold=spec.failure_threshold,
        open_interval_ns=int(spec.open_interval_ms * 1e6))
    shipper = ResilientShipper(
        sim, FaultyTransport(archiver.sink),
        config=DeliveryConfig(spool_limit=spec.spool_limit,
                              dead_letter_limit=spec.dead_letter_limit),
        breaker=breaker, source=source, seed=spec.schedule.seed)
    if doc is not None:
        checkpoint.restore_control_plane(cp, doc)
        if "shipper" in doc:
            shipper.restore_state(doc["shipper"])
        if "breaker" in doc:
            breaker.restore_state(doc["breaker"])
    cp.report_sink = shipper
    return _Stack(
        cp=cp, shipper=shipper, breaker=breaker,
        policy=DegradationPolicy(
            breaker, cp, interval_scale=spec.degraded_interval_scale),
        watchdog=ExtractionWatchdog(sim, cp),
        restored_evictions=shipper.dead_letter_evictions)


def _conservation_failures(cp) -> List[str]:
    """The no-lost-window invariants over one finished run: every packet
    the data plane binned is either in the control plane's cumulative
    books, still in the live banks, or (time windows only) counted as a
    data-plane eviction.  A crash-restart that lost a flipped bank or
    double-restored one breaks these exactly."""
    from repro.p4.time_windows import decode_windows

    out: List[str] = []
    h = cp.histograms
    if h is not None:
        for label, hist, cumulative in (
                ("rtt", cp.monitor.rtt_loss.rtt_hist, h.rtt_cumulative),
                ("qdepth", cp.monitor.queue.qdepth_hist, h.qdepth_cumulative)):
            residue = int(hist.bank(0).sum()) + int(hist.bank(1).sum())
            total = int(cumulative.sum()) + residue
            if total != hist.ops:
                out.append(
                    f"histogram[{label}]: extracted+residue={total} != "
                    f"observed={hist.ops} (lost or double-counted window)")
    f = cp.forensics
    if f is not None:
        tw = cp.monitor.queue.time_windows
        residue = [0] * tw.levels
        for bank in (tw.bank(0), tw.bank(1)):
            for rec in decode_windows(bank, tw.base_window_ns):
                residue[rec.level] += rec.pkt_count
        for level in range(tw.levels):
            total = (f.extracted_pkts[level] + residue[level]
                     + tw.evicted_pkts[level])
            if total != tw.ops:
                out.append(
                    f"time_window[L{level}]: extracted+residue+evicted="
                    f"{total} != observed={tw.ops} (lost window)")
    return out


def _against_twin(spec: ChaosSpec, run, oracle_report) -> tuple:
    """Run the uncrashed twin (same spec minus its crash windows) and
    return the crashed run's ``(oracle_passed, oracle_failures,
    twin_failures)``.  The monitor is a passive tap, so the data plane's
    observe counters must match the twin's exactly.  The twin is also
    the experimental control: an oracle check failing in BOTH runs is a
    property of the workload + faults (e.g. a histogram tolerance on
    this traffic mix) and stays in the report, attributed to the
    workload; only failures unique to the crashed run indict recovery.
    """
    schedule = spec.schedule.clone()
    schedule.windows = [w for w in schedule.windows if w.kind != "cp_crash"]
    twin = run_chaos(replace(spec, schedule=schedule))
    twin_failed = {(f.metric, f.subject) for f in twin.oracle_report.failures}
    excess = [f for f in oracle_report.failures
              if (f.metric, f.subject) not in twin_failed]
    shared = [f for f in oracle_report.failures
              if (f.metric, f.subject) in twin_failed]
    oracle_failures = [str(f) for f in excess] + [
        f"{f} [also fails in the uncrashed twin: workload-"
        "inherent, not recovery-caused]" for f in shared]
    crashed, other = run.scenario.monitor, twin.run.scenario.monitor
    twin_failures = []
    for label, a, b in (
            ("rtt_hist ops", crashed.rtt_loss.rtt_hist, other.rtt_loss.rtt_hist),
            ("time_window ops", crashed.queue.time_windows,
             other.queue.time_windows)):
        if a is not None and b is not None and a.ops != b.ops:
            twin_failures.append(
                f"twin divergence: {label} crashed={a.ops} twin={b.ops} "
                f"(the crash leaked into the packet stream)")
    return not excess, oracle_failures, twin_failures


def run_chaos(spec: ChaosSpec, *, checkpoint_dir: Optional[str] = None,
              policy: Optional[SupervisorPolicy] = None,
              run_twin: bool = True) -> ChaosResult:
    """Run one chaos scenario end to end and settle the books.

    The schedule decides the mode.  Without a ``cp_crash`` window the
    run installs only the fault injector.  With one, it also installs a
    checkpoint manager (over ``checkpoint_dir``, a temporary directory
    by default) and a :class:`~repro.resilience.supervisor.Supervisor`
    (restart ``policy``) that kills the control plane inside the window
    and restarts it from the latest checkpoint.  The books then span
    every incarnation — acks unioned, each incarnation's dead-letter
    evictions counted since its restore — and the :class:`Recovery`
    section adds: every kill matched by a restart, no read-flip window
    lost (histogram and time-window packet mass conserves), and, with
    ``run_twin``, an oracle and data-plane tallies judged against the
    uncrashed twin (:func:`_against_twin`).
    """
    crash = spec.schedule.has("cp_crash")
    if not crash and (checkpoint_dir is not None or policy is not None):
        raise ValueError("checkpoint_dir and policy need a cp_crash window "
                         "in the schedule; add one with with_crash()")
    tmp = manager = supervisor = None
    if crash:
        if checkpoint_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-checkpoints-")
            checkpoint_dir = tmp.name
        manager = checkpoint.install_manager(checkpoint.CheckpointManager(
            checkpoint.CheckpointStore(checkpoint_dir)))
    injector = install(FaultInjector(spec.schedule))
    try:
        run = spec.scenario.build()
        sim = run.scenario.sim
        injector.bind_clock(lambda: sim.now)
        archiver = run.scenario.archiver
        # Incarnation 0: the scenario-built control plane (it bound the
        # installed manager, if any, at construction).
        first = _build_stack(spec, sim, archiver, run.scenario.control_plane,
                             "p4-controlplane")
        if crash:
            def start_fn(incarnation: int) -> _Stack:
                # Rebuild the whole process-side stack from the newest
                # intact checkpoint.  The data plane is switch hardware —
                # it kept its registers and backlogged its digests; only
                # the process state is restored.  The successor shipper
                # keeps a fresh source name so its new envelopes can never
                # collide with a dead incarnation's (source, seq) keys.
                doc = manager.store.latest()
                stack = _build_stack(
                    spec, sim, archiver,
                    MonitorControlPlane(sim, run.scenario.monitor,
                                        report_sink=None),
                    f"p4-controlplane:r{incarnation}", doc)
                stack.cp.start()
                # The oracle checker and the settle phase read the
                # scenario's control plane: the newest one owns the books.
                run.scenario.control_plane = stack.cp
                return stack

            def stop_fn(stack: _Stack) -> None:
                stack.cp.stop()
                stack.watchdog.cancel()
                stack.shipper.close()

            supervisor = Supervisor(
                sim, injector, start_fn, stop_fn, policy=policy, manager=manager,
                escalate_fn=lambda stack: stack.cp.set_degraded(
                    True, interval_scale=spec.degraded_interval_scale))
            supervisor.adopt(first)
            # Crash-before-first-tick safety: one explicit capture so the
            # store is never empty when the supervisor needs it.
            manager.capture(first.cp)

        run.run()

        # Fault windows are over; let the spool, breaker probes and
        # dead-letter replay settle.
        now_s = max(spec.scenario.end_s, spec.schedule.end_s)
        deadline_s = now_s + spec.drain_s
        while now_s < deadline_s:
            now_s = min(now_s + _DRAIN_STEP_S, deadline_s)
            sim.run_until(seconds(now_s))
            live = first if supervisor is None else supervisor.stack
            if live is None:
                continue
            live.shipper.redeliver_dead_letters()
            live.shipper.kick()
            if live.shipper.pending == 0 and not live.shipper.dead_letters:
                break
        stacks, final = [first], first
        if supervisor is not None:
            supervisor.cancel()
            final = supervisor.stack
            stacks = supervisor.dead + ([final] if final is not None else [])
        if final is not None:
            final.cp.stop()
            final.watchdog.cancel()
            final.shipper.redeliver_dead_letters()
            final.shipper.kick()

        # The books across every incarnation.
        archived, duplicate_seqs, missing = _settle(archiver.store, {
            key: rows for s in stacks for key, rows in s.shipper.acked_keys.items()})
        cp = run.scenario.control_plane
        recovery = None
        if supervisor is not None:
            recovery = Recovery(
                kills=supervisor.kills, restarts=supervisor.restarts,
                failed_attempts=supervisor.failed_attempts,
                escalations=supervisor.escalations, gave_up=supervisor.gave_up,
                checkpoints_written=manager.captures,
                checkpoints_skipped=manager.skipped,
                conservation_failures=_conservation_failures(cp))
        # The checker reads the archive, whose timestamps a clock-skew
        # window moved by up to its offset.
        oracle_report = run.check(clock_skew_ns=millis(max(
            (abs(w.offset_ms) for w in spec.schedule.windows if w.kind == "clock_skew"),
            default=0.0)))
        oracle_passed = oracle_report.passed
        oracle_failures = [str(f) for f in oracle_report.failures]
        if recovery is not None and run_twin:
            checkpoint.uninstall_manager()
            uninstall()
            oracle_passed, oracle_failures, recovery.twin_failures = \
                _against_twin(spec, run, oracle_report)

        last = final if final is not None else stacks[-1]
        result = ChaosResult(
            spec=spec,
            shipped=last.shipper.shipped_total,
            acked=last.shipper.acked_total,
            archived_unique=archived,
            archived_duplicate_seqs=duplicate_seqs,
            missing_acked_seqs=missing,
            still_pending=(0 if final is None else final.shipper.pending
                           + len(final.shipper.dead_letters)),
            dead_letter_evictions=sum(
                s.shipper.dead_letter_evictions - s.restored_evictions
                for s in stacks),
            duplicates_dropped=archiver.output.duplicates_dropped,
            malformed_dropped=archiver.tcp_input.malformed,
            shipper_stats=last.shipper.stats(),
            injections=dict(injector.injections),
            breaker_transitions=list(last.breaker.transitions),
            breaker_summary=last.breaker.summary(),
            degrade_events=sum(s.policy.degrade_events for s in stacks),
            restore_events=sum(s.policy.restore_events for s in stacks),
            watchdog_stalls=sum(s.watchdog.total_stalls for s in stacks),
            ticks_deferred=sum(cp.ticks_deferred.values()),
            catchup_ticks=sum(cp.catchup_ticks.values()),
            reports_suppressed=cp.reports_suppressed,
            oracle_passed=oracle_passed,
            oracle_failures=oracle_failures,
            oracle_checks=len(oracle_report.results),
            archive_digest=_archive_digest(archiver.store),
            recovery=recovery,
            run=run,
            oracle_report=oracle_report,
            stacks=stacks,
        )
        log.info("chaos run seed=%d: %s%s", spec.schedule.seed,
                 "PASS" if result.passed else "FAIL",
                 "" if recovery is None else
                 f" (kills={recovery.kills} restarts={recovery.restarts})")
        return result
    finally:
        if supervisor is not None:
            supervisor.cancel()
        if manager is not None:
            checkpoint.uninstall_manager()
        uninstall()
        if tmp is not None:
            tmp.cleanup()


def with_crash(spec: ChaosSpec, start_s: Optional[float] = None,
               duration_s: float = 0.6) -> ChaosSpec:
    """Clone a chaos spec with a mid-run ``cp_crash`` window appended
    (and the histogram/forensics externs enabled, so the no-lost-window
    conservation invariants are checkable across the restart)."""
    scenario = spec.scenario.clone(histograms=True, forensics=True)
    schedule = spec.schedule.clone()
    if start_s is None:
        start_s = round(0.4 * scenario.duration_s, 3)
    schedule.windows.append(FaultWindow("cp_crash", start_s, duration_s))
    schedule.validate()
    return replace(spec, scenario=scenario, schedule=schedule)


def write_artifact(result: ChaosResult, path: str) -> None:
    """The failing-run artifact CI uploads: spec + settled books, enough
    to replay with ``repro-experiments chaos --schedule <artifact>``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_jsonable(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path_or_name: str) -> ChaosSpec:
    """Resolve a ``--schedule`` argument: a bundled schedule name, a
    ChaosSpec JSON file, a failed-run artifact (replays its spec), or a
    bare FaultSchedule JSON file (paired with the small workload)."""
    bundled = bundled_chaos()
    if path_or_name in bundled:
        return bundled[path_or_name]
    with open(path_or_name, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") == CHAOS_SCHEMA and "spec" in doc:
        return ChaosSpec.from_jsonable(doc["spec"])
    if doc.get("schema") == CHAOS_SCHEMA and "scenario" in doc:
        return ChaosSpec.from_jsonable(doc)
    schedule = FaultSchedule.from_jsonable(doc)
    return ChaosSpec(scenario=_small_workload(schedule.seed),
                     schedule=schedule)
