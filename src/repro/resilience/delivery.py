"""Resilient report shipping: backoff, spooling, dedup.

:class:`ResilientShipper` sits between the control plane and the
archiver's TCP input, a drop-in report sink whose unit is the block:

- **envelopes** — each call takes one ``_seq``; the block's tail ends
  with that ``_seq`` and the ``_shipper``, once for all its rows: the
  key the archiver's :class:`~repro.perfsonar.logstash.SequenceDedup`
  drops a redelivered block on;
- **capped exponential backoff with seeded jitter** — a failed send
  spools the block and retries at ``base * 2^attempts`` (capped);
- **a bounded spool with dead-letter overflow** — evictions from a full
  dead-letter buffer are the only true losses, counted in blocks and in
  reports;
- **at-least-once redelivery** — a block is acknowledged only when the
  transport call returns.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro import telemetry
from repro.core.reports import Block, Run
from repro.telemetry import hooks
from repro.resilience.faults import BreakerOpen, DeferredDelivery, DeliveryError


@dataclass
class DeliveryConfig:
    """Backoff/spool knobs (docs/robustness.md reproduces this table).
    ``spool_limit`` and ``dead_letter_limit`` count blocks."""

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


@dataclass
class _Pending:
    """One spooled block awaiting (re)delivery; under a tracer, the
    trace ids of the report context it was shipped in (one per
    document), which its later delivery reopens."""

    rows: Block
    attempts: int = 0
    not_before_ns: int = 0
    trace_ids: Optional[Sequence[int]] = None


#: The envelope's fields, last in the tail of every block a shipper sends.
_ENVELOPE = ("_seq", "_shipper")


def _skewed(run: Run, skew_s: float) -> Run:
    """The run with its ``@timestamp``, if it has one, moved by ``skew_s``:
    once where its documents share it."""
    at = run.at("@timestamp")
    if at is None:
        return run
    values = run.values
    stamp = [t + skew_s for t in values[at]] if at in run.cols else values[at] + skew_s
    return Run(run.keys, values[:at] + (stamp,) + values[at + 1:], run.cols, run.n)


def _block_of(entry) -> Block:
    """A checkpointed block, whose documents are written one ``(keys,
    values)`` pair each with their envelope, as a block of runs of one
    with the envelope lifted back into its tail.  An entry written when
    the shipper sent one report at a time is an enveloped dict: it
    becomes a block of one."""
    if isinstance(entry, dict):
        doc = dict(entry)
        doc.update(_seq=doc.pop("_seq"), _shipper=doc.pop("_shipper"))
        entry = [zip(*doc.items())]
    rows = [(tuple(keys), tuple(tuple(v) if type(v) is list else v for v in values))
            for keys, values in entry]
    cut = -len(_ENVELOPE)
    return Block([Run(keys[:cut], values[:cut]) for keys, values in rows],
                 (_ENVELOPE, rows[0][1][cut:]))


#: The counters a checkpoint carries.
_COUNTERS = ("shipped_total", "acked_total", "retries_total",
             "spool_overflow_total", "dead_letter_evictions",
             "dead_letter_evicted_rows", "dead_letters_redelivered",
             "skewed_total", "spool_high_watermark")


def _rng_to_jsonable(rng: random.Random) -> list:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _rng_from_jsonable(state) -> tuple:
    return (state[0], tuple(state[1]), state[2])


class ResilientShipper:
    """At-least-once report sink with backoff, spool and dead letters."""

    def __init__(self, sim, transport: Callable[[Block], None],
                 config: Optional[DeliveryConfig] = None, breaker=None,
                 source: str = "p4-controlplane", seed: int = 0) -> None:
        self.sim = sim
        self.transport = transport
        self.config = config or DeliveryConfig()
        self.breaker = breaker
        self.source = source
        self._rng = random.Random(f"shipper:{source}:{seed}")
        self._faults = hooks.injector
        self._trace = hooks.tracer

        self.seq = 0
        self._spool: Deque[_Pending] = deque()
        self.dead_letters: List[Block] = []
        # The ack book, (source, seq) -> rows; it names a dead
        # incarnation's source for the envelopes redelivered after a crash.
        self.acked_keys: Dict[tuple, int] = {}
        self._retry_event = None
        # Counted in blocks, but for the reports the evictions lost.
        self.shipped_total = 0
        self.acked_total = 0
        self.retries_total = 0
        self.spool_overflow_total = 0
        self.dead_letter_evictions = 0
        self.dead_letter_evicted_rows = 0  # the only true losses
        self.dead_letters_redelivered = 0
        self.skewed_total = 0
        self.spool_high_watermark = 0
        #: Attempts that did not ack, by outcome ("breaker-open",
        #: "deferred", "error"); this incarnation's only.
        self.unacked_attempts: Counter = Counter()

        telemetry.reads(self, counters=[
            ("repro_delivery_attempts_total", "block delivery attempts, by outcome",
             ("outcome",), lambda: {"acked": self.acked_total, **self.unacked_attempts}),
            ("repro_delivery_dead_letters_total",
             "blocks moved to the dead-letter buffer on spool overflow",
             (), lambda: self.spool_overflow_total),
        ], gauges=[
            ("repro_delivery_spool_depth",
             "blocks waiting in the shipper's redelivery spool",
             (), lambda: len(self._spool)),
            ("repro_delivery_dead_letter_depth", "blocks parked in the dead-letter buffer",
             (), lambda: len(self.dead_letters)),
        ])

    # -- the report-sink interface ---------------------------------------------

    def __call__(self, block: Block) -> None:
        """Envelope one block (one ``_seq`` in its tail, one clock-skew
        draw) and deliver it, or spool it behind the blocks already
        waiting."""
        if not block:
            return
        self.seq += 1
        keys, values = block.tail
        tail = (keys + _ENVELOPE, values + (self.seq, self.source))
        skew = self._faults.clock_skew_ns() if self._faults is not None else 0
        if skew:
            rows = Block([_skewed(run, skew / 1e9) for run in block], tail)
            self.skewed_total += 1
        else:
            rows = Block(block, tail)
        self.shipped_total += 1
        if self._spool:
            # Head-of-line discipline: never overtake spooled blocks.
            self._enqueue(rows)
            return
        try:
            self._deliver(rows)
        except DeferredDelivery as exc:
            self._enqueue(rows, not_before_ns=self.sim.now + exc.delay_ns)
        except DeliveryError:
            self._enqueue(rows, attempts=1)

    # -- delivery machinery ----------------------------------------------------

    def _deliver(self, rows: Block) -> None:
        """One transport attempt; acknowledges on return."""
        breaker = self.breaker
        now = self.sim.now
        if breaker is not None and not breaker.allow(now):
            self.unacked_attempts["breaker-open"] += 1
            raise BreakerOpen("circuit breaker open")
        try:
            self.transport(rows)
        except DeferredDelivery:
            # Transit delay, not a path failure: the breaker takes back
            # the probe it lent, and nothing else.
            if breaker is not None:
                breaker.record_deferred(now)
            self.unacked_attempts["deferred"] += 1
            raise
        except DeliveryError:
            if breaker is not None:
                breaker.record_failure(now)
            self.unacked_attempts["error"] += 1
            raise
        if breaker is not None:
            breaker.record_success(now)
        seq, source = rows.tail[1][-2:]
        self.acked_keys[source, seq] = rows.size
        self.acked_total += 1

    def _deliver_spooled(self, head: _Pending) -> None:
        """Deliver a spooled block in the report context it was shipped
        in: its documents keep their lineage."""
        trace = self._trace
        if trace is None or head.trace_ids is None:
            self._deliver(head.rows)
            return
        outer = trace.begin_report(self.sim.now, head.trace_ids)
        try:
            self._deliver(head.rows)
        finally:
            trace.end_report(outer)

    def _enqueue(self, rows: Block, attempts: int = 0,
                 not_before_ns: int = 0) -> None:
        cfg = self.config
        if len(self._spool) >= cfg.spool_limit:
            self.spool_overflow_total += 1
            self.dead_letters.append(rows)
            if len(self.dead_letters) > cfg.dead_letter_limit:
                self.dead_letter_evicted_rows += self.dead_letters.pop(0).size
                self.dead_letter_evictions += 1
            return
        self._spool.append(_Pending(rows, attempts, not_before_ns, None if self._trace is None
                                    else self._trace.report_ids()))
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
                self._deliver_spooled(head)
            except DeferredDelivery as exc:
                # Reordered in transit: this block now arrives *after*
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
        """Blocks spooled and not yet acknowledged."""
        return len(self._spool)

    def kick(self) -> None:
        """Attempt an immediate drain (collapses any pending backoff)."""
        self.close()
        self._drain()

    def redeliver_dead_letters(self) -> int:
        """Move parked dead letters back into the spool (the operator's
        'the archiver is back, replay what you parked' action).  Returns
        how many blocks were re-spooled; the rest stay parked."""
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
        """Delivery counters; every count is of blocks."""
        return {
            "shipped": self.shipped_total,
            "acked": self.acked_total,
            "retries": self.retries_total,
            "pending": len(self._spool),
            "spool_high_watermark": self.spool_high_watermark,
            "spool_overflows": self.spool_overflow_total,
            "dead_letters": len(self.dead_letters),
            "dead_letter_evictions": self.dead_letter_evictions,
            "dead_letter_evicted_rows": self.dead_letter_evicted_rows,
            "dead_letters_redelivered": self.dead_letters_redelivered,
            "timestamps_skewed": self.skewed_total,
        }

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of everything a successor shipper needs to
        finish this one's work: the spooled blocks (order-preserving),
        the dead-letter blocks, the ack book, counters and the backoff
        RNG.  A block's rows are written with its envelope."""
        return {
            "source": self.source,
            "seq": self.seq,
            "spool": [{"rows": p.rows.folded(), "attempts": p.attempts,
                       "not_before_ns": p.not_before_ns}
                      for p in self._spool],
            "dead_letters": [block.folded() for block in self.dead_letters],
            "acked_keys": sorted([src, seq, rows] for (src, seq), rows
                                 in self.acked_keys.items()),
            "counters": {name: getattr(self, name) for name in _COUNTERS},
            "rng_state": _rng_to_jsonable(self._rng),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed shipper's state.  ``source`` is *not*
        restored: the restarted incarnation keeps its own (fresh) source
        name so new envelopes never collide with a dead incarnation's
        ``(source, seq)`` keys — redelivered old envelopes keep their
        original keys.  A per-row checkpoint's entries come back as
        blocks of one, and each of its evictions was one report."""
        self.seq = int(state["seq"])
        self._spool = deque(_Pending(_block_of(p.get("rows") or p["doc"]),
                                     int(p["attempts"]), int(p["not_before_ns"]))
                            for p in state["spool"])
        self.dead_letters = [_block_of(d) for d in state["dead_letters"]]
        self.acked_keys = {(src, int(seq)): int(rows[0]) if rows else 1
                           for src, seq, *rows in state["acked_keys"]}
        counters = {"dead_letter_evicted_rows": state["counters"]["dead_letter_evictions"],
                    **state["counters"]}
        for name in _COUNTERS:
            setattr(self, name, int(counters[name]))
        self._rng.setstate(_rng_from_jsonable(state["rng_state"]))
        telemetry.rebase(self)
        self.close()
        self._arm_retry()


class FaultyTransport:
    """The wire between shipper and archiver: consults the installed
    injector for each attempt's fate, then hands the block to the
    target sink (normally :meth:`Archiver.sink <repro.perfsonar.archiver.
    Archiver.sink>`, whose own hooks model archiver/Logstash outages)."""

    def __init__(self, target: Callable[[Block], None]) -> None:
        self.target = target
        self._faults = hooks.injector
        self.delivered = 0
        self.duplicated = 0

    def __call__(self, block: Block) -> None:
        inj = self._faults
        fate = inj.transport_fate() if inj is not None else None
        self.target(block)
        self.delivered += 1
        if fate == "duplicate":
            self.duplicated += 1
            self.target(Block(block, block.tail))
            self.delivered += 1
