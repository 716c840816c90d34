"""Resilient report shipping: backoff, spooling, dedup.

:class:`ResilientShipper` sits between the control plane and the
archiver's TCP input.  It is a drop-in report sink (callable on a block
of Report_v1 rows) that works per row, adding:

- **sequence-numbered envelopes** — every row becomes its Report_v1
  dict plus ``_seq`` and ``_shipper`` fields, the idempotency key the
  archiver-side :class:`SequenceDedup` collapses redeliveries on; the
  spool, the dead letters and the checkpoint hold these dicts, and each
  is delivered alone, as a block of one;
- **capped exponential backoff with deterministic jitter** — a failed
  send spools the report and retries at ``base * 2^attempts`` (capped),
  plus a seeded-RNG jitter fraction so replays stay byte-identical;
- **a bounded in-memory spool with dead-letter overflow** — when the
  spool is full, new reports land in a bounded dead-letter buffer
  instead of blocking the control plane; evictions from a full
  dead-letter buffer are the only true losses, and they are counted;
- **at-least-once redelivery** — a report is acknowledged only when the
  transport call returns; drops and reordering hold the report in the
  spool until a delivery actually lands.

:class:`FaultyTransport` wraps the archiver sink with the installed
:class:`~repro.resilience.faults.FaultInjector`'s per-attempt transport
fates — the hook the chaos harness drives drops/duplicates/reordering
through.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from repro import telemetry
from repro.core.reports import Block, document_row
from repro.resilience import faults
from repro.resilience.faults import (
    BreakerOpen,
    DeferredDelivery,
    DeliveryError,
)


@dataclass
class DeliveryConfig:
    """Backoff/spool knobs (docs/robustness.md reproduces this table)."""

    spool_limit: int = 512
    dead_letter_limit: int = 256
    base_backoff_ns: int = 50_000_000        # 50 ms
    max_backoff_ns: int = 2_000_000_000      # 2 s cap
    jitter_frac: float = 0.5                 # uniform [0, frac) * backoff
    backoff_cap_doublings: int = 6

    def backoff_ns(self, attempts: int, rng: random.Random) -> int:
        base = self.base_backoff_ns * (1 << min(attempts,
                                                self.backoff_cap_doublings))
        base = min(base, self.max_backoff_ns)
        return int(base * (1.0 + self.jitter_frac * rng.random()))


class _Pending:
    """One spooled report awaiting (re)delivery."""

    __slots__ = ("doc", "attempts", "not_before_ns")

    def __init__(self, doc: dict, attempts: int = 0,
                 not_before_ns: int = 0) -> None:
        self.doc = doc
        self.attempts = attempts
        self.not_before_ns = not_before_ns


def _rng_to_jsonable(rng: random.Random) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_from_jsonable(state) -> tuple:
    return (state[0], tuple(state[1]), state[2])


class ResilientShipper:
    """At-least-once report sink with backoff, spool and dead letters."""

    def __init__(
        self,
        sim,
        transport: Callable[[Block], None],
        config: Optional[DeliveryConfig] = None,
        breaker=None,
        source: str = "p4-controlplane",
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.config = config or DeliveryConfig()
        self.breaker = breaker
        self.source = source
        self._rng = random.Random(f"shipper:{source}:{seed}")
        self._faults = faults.injector()

        self.seq = 0
        self._spool: Deque[_Pending] = deque()
        self.dead_letters: List[dict] = []
        self.acked_seqs: Set[int] = set()
        # (source, seq) pairs — distinguishes acks for redelivered
        # envelopes inherited from a dead incarnation (crash recovery).
        self.acked_keys: Set[tuple] = set()
        self._retry_event = None

        self.shipped_total = 0
        self.acked_total = 0
        self.retries_total = 0
        self.spool_overflow_total = 0
        self.dead_letter_evictions = 0     # the only true losses, counted
        self.dead_letters_redelivered = 0
        self.skewed_total = 0
        self.spool_high_watermark = 0

        self._tel_attempts = None
        if telemetry.enabled():
            self._tel_attempts = telemetry.counter(
                "repro_delivery_attempts_total",
                "report delivery attempts, by outcome",
                labels=("outcome",))
            self._tel_dead = telemetry.counter(
                "repro_delivery_dead_letters_total",
                "reports moved to the dead-letter buffer on spool overflow")
            spool_gauge = telemetry.gauge(
                "repro_delivery_spool_depth",
                "reports waiting in the shipper's redelivery spool")
            dead_gauge = telemetry.gauge(
                "repro_delivery_dead_letter_depth",
                "reports parked in the dead-letter buffer")
            telemetry.registry().add_collector(
                lambda _reg, s=self, g=spool_gauge: g.set(len(s._spool)))
            telemetry.registry().add_collector(
                lambda _reg, s=self, g=dead_gauge: g.set(len(s.dead_letters)))

    # -- the report-sink interface ---------------------------------------------

    def __call__(self, block: Block) -> None:
        for keys, values in block:
            self._offer(dict(zip(keys, (list(v) if type(v) is tuple else v
                                       for v in values))))

    def _offer(self, doc: dict) -> None:
        self.seq += 1
        doc["_seq"] = self.seq
        doc["_shipper"] = self.source
        inj = self._faults
        if inj is not None and "@timestamp" in doc:
            skew = inj.clock_skew_ns()
            if skew:
                doc["@timestamp"] = doc["@timestamp"] + skew / 1e9
                self.skewed_total += 1
        self.shipped_total += 1
        if self._spool:
            # Head-of-line discipline: never overtake spooled reports.
            self._enqueue(doc)
            return
        try:
            self._deliver(doc)
        except DeferredDelivery as exc:
            self._enqueue(doc, not_before_ns=self.sim.now + exc.delay_ns)
        except DeliveryError:
            self._enqueue(doc, attempts=1)

    # -- delivery machinery ----------------------------------------------------

    def _deliver(self, doc: dict) -> None:
        """One transport attempt; acknowledges on return."""
        breaker = self.breaker
        now = self.sim.now
        if breaker is not None and not breaker.allow(now):
            if self._tel_attempts is not None:
                self._tel_attempts.labels("breaker-open").inc()
            raise BreakerOpen("circuit breaker open")
        try:
            self.transport([document_row(doc)])
        except DeferredDelivery:
            # Transit delay, not a path failure: the breaker ignores it.
            if self._tel_attempts is not None:
                self._tel_attempts.labels("deferred").inc()
            raise
        except DeliveryError:
            if breaker is not None:
                breaker.record_failure(now)
            if self._tel_attempts is not None:
                self._tel_attempts.labels("error").inc()
            raise
        if breaker is not None:
            breaker.record_success(now)
        self.acked_seqs.add(doc["_seq"])
        self.acked_keys.add((doc.get("_shipper", self.source), doc["_seq"]))
        self.acked_total += 1
        if self._tel_attempts is not None:
            self._tel_attempts.labels("acked").inc()

    def _enqueue(self, doc: dict, attempts: int = 0,
                 not_before_ns: int = 0) -> None:
        cfg = self.config
        if len(self._spool) >= cfg.spool_limit:
            self.spool_overflow_total += 1
            if self._tel_attempts is not None:
                self._tel_dead.inc()
            self.dead_letters.append(doc)
            if len(self.dead_letters) > cfg.dead_letter_limit:
                self.dead_letters.pop(0)
                self.dead_letter_evictions += 1
            return
        self._spool.append(_Pending(doc, attempts, not_before_ns))
        self.spool_high_watermark = max(self.spool_high_watermark,
                                        len(self._spool))
        self._arm_retry()

    def _arm_retry(self) -> None:
        if self._retry_event is not None or not self._spool:
            return
        head = self._spool[0]
        delay = self.config.backoff_ns(head.attempts, self._rng)
        fire_ns = max(self.sim.now + delay, head.not_before_ns)
        self._retry_event = self.sim.at(fire_ns, self._drain)

    def _drain(self) -> None:
        self._retry_event = None
        now = self.sim.now
        spool = self._spool
        while spool:
            head = spool[0]
            if head.not_before_ns > now:
                break
            try:
                self._deliver(head.doc)
            except DeferredDelivery as exc:
                # Reordered in transit: this report now arrives *after*
                # whatever the spool delivers next.
                spool.popleft()
                head.not_before_ns = now + exc.delay_ns
                spool.append(head)
            except DeliveryError:
                head.attempts += 1
                self.retries_total += 1
                break
            else:
                spool.popleft()
        self._arm_retry()

    # -- operator controls -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Reports spooled and not yet acknowledged."""
        return len(self._spool)

    def kick(self) -> None:
        """Attempt an immediate drain (collapses any pending backoff)."""
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self._drain()

    def redeliver_dead_letters(self) -> int:
        """Move parked dead letters back into the spool (the operator's
        'the archiver is back, replay what you parked' action).  Returns
        how many were re-spooled; the rest stay parked."""
        moved = 0
        while self.dead_letters and len(self._spool) < self.config.spool_limit:
            self._spool.append(_Pending(self.dead_letters.pop(0)))
            moved += 1
        self.dead_letters_redelivered += moved
        if moved:
            self._arm_retry()
        return moved

    def close(self) -> None:
        """Cancel the pending retry timer (crash/stop teardown).  The
        spool and dead letters stay readable — a supervisor records a
        final :meth:`checkpoint_state` from a closed shipper."""
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    def stats(self) -> dict:
        return {
            "shipped": self.shipped_total,
            "acked": self.acked_total,
            "retries": self.retries_total,
            "pending": len(self._spool),
            "spool_high_watermark": self.spool_high_watermark,
            "spool_overflows": self.spool_overflow_total,
            "dead_letters": len(self.dead_letters),
            "dead_letter_evictions": self.dead_letter_evictions,
            "dead_letters_redelivered": self.dead_letters_redelivered,
            "timestamps_skewed": self.skewed_total,
        }

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of everything a successor shipper needs to
        finish this one's work: the spool (order-preserving), dead
        letters, ack books, counters and the backoff RNG."""
        return {
            "source": self.source,
            "seq": self.seq,
            "spool": [{"doc": dict(p.doc), "attempts": p.attempts,
                       "not_before_ns": p.not_before_ns}
                      for p in self._spool],
            "dead_letters": [dict(d) for d in self.dead_letters],
            "acked_seqs": sorted(self.acked_seqs),
            "acked_keys": sorted([src, seq] for src, seq in self.acked_keys),
            "counters": {
                "shipped_total": self.shipped_total,
                "acked_total": self.acked_total,
                "retries_total": self.retries_total,
                "spool_overflow_total": self.spool_overflow_total,
                "dead_letter_evictions": self.dead_letter_evictions,
                "dead_letters_redelivered": self.dead_letters_redelivered,
                "skewed_total": self.skewed_total,
                "spool_high_watermark": self.spool_high_watermark,
            },
            "rng_state": _rng_to_jsonable(self._rng),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed shipper's state.  ``source`` is *not*
        restored: the restarted incarnation keeps its own (fresh) source
        name so new envelopes never collide with a dead incarnation's
        ``(source, seq)`` keys — redelivered old envelopes keep their
        original keys and dedup against the original source."""
        self.seq = int(state["seq"])
        self._spool.clear()
        for p in state["spool"]:
            self._spool.append(_Pending(dict(p["doc"]), int(p["attempts"]),
                                        int(p["not_before_ns"])))
        self.dead_letters = [dict(d) for d in state["dead_letters"]]
        self.acked_seqs = {int(s) for s in state["acked_seqs"]}
        self.acked_keys = {(src, int(seq)) for src, seq in state["acked_keys"]}
        c = state["counters"]
        self.shipped_total = int(c["shipped_total"])
        self.acked_total = int(c["acked_total"])
        self.retries_total = int(c["retries_total"])
        self.spool_overflow_total = int(c["spool_overflow_total"])
        self.dead_letter_evictions = int(c["dead_letter_evictions"])
        self.dead_letters_redelivered = int(c["dead_letters_redelivered"])
        self.skewed_total = int(c["skewed_total"])
        self.spool_high_watermark = int(c["spool_high_watermark"])
        self._rng.setstate(_rng_from_jsonable(state["rng_state"]))
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self._arm_retry()


class FaultyTransport:
    """The wire between shipper and archiver: consults the installed
    injector for each attempt's fate, then hands the block to the
    target sink (normally :meth:`Archiver.sink <repro.perfsonar.archiver.
    Archiver.sink>`, whose own hooks model archiver/Logstash outages)."""

    def __init__(self, target: Callable[[Block], None]) -> None:
        self.target = target
        self._faults = faults.injector()
        self.delivered = 0
        self.duplicated = 0

    def __call__(self, block: Block) -> None:
        inj = self._faults
        fate = inj.transport_fate() if inj is not None else None
        self.target(block)
        self.delivered += 1
        if fate == "duplicate":
            self.duplicated += 1
            self.target(list(block))
            self.delivered += 1


class SequenceDedup:
    """Archiver-side idempotency on the shipper's (source, seq) key.

    Keeps, per source, the highest sequence seen plus a sliding window
    of individual seqs below it, so out-of-order redeliveries dedup
    exactly while memory stays bounded.  Sequences older than the
    window are assumed already archived (conservative: redelivering a
    pruned sequence drops it rather than duplicating it)."""

    def __init__(self, window: int = 8192) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._sources: Dict[str, tuple] = {}  # source -> (max_seq, seen set)
        self.duplicates = 0
        self.assumed_old = 0

    def is_duplicate(self, source: str, seq: int) -> bool:
        entry = self._sources.get(source)
        if entry is None:
            return False
        max_seq, seen = entry
        if seq in seen:
            self.duplicates += 1
            return True
        if seq <= max_seq - self.window:
            self.assumed_old += 1
            self.duplicates += 1
            return True
        return False

    def record(self, source: str, seq: int) -> None:
        max_seq, seen = self._sources.get(source, (0, set()))
        seen.add(seq)
        if seq > max_seq:
            max_seq = seq
            if len(seen) > self.window:
                floor = max_seq - self.window
                seen = {s for s in seen if s > floor}
        self._sources[source] = (max_seq, seen)

    def seen_count(self, source: str) -> int:
        entry = self._sources.get(source)
        return len(entry[1]) if entry else 0

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of the per-source high-water marks and
        seen windows (the exactly-once books)."""
        return {
            "window": self.window,
            "duplicates": self.duplicates,
            "assumed_old": self.assumed_old,
            "sources": {src: {"max_seq": max_seq, "seen": sorted(seen)}
                        for src, (max_seq, seen) in self._sources.items()},
        }

    def restore_state(self, state: dict) -> None:
        self.window = int(state["window"])
        self.duplicates = int(state["duplicates"])
        self.assumed_old = int(state["assumed_old"])
        self._sources = {
            src: (int(entry["max_seq"]), {int(s) for s in entry["seen"]})
            for src, entry in state["sources"].items()
        }
