"""Flight-size tracking and the network-vs-endpoint limiter (§4.4).

Data plane: for each tracked flow, maintain the highest transmitted
sequence (from data packets) and the highest acknowledgment plus the
receiver's advertised window (from the reverse-direction ACK stream).
``flight size = highest_seq - highest_ack`` — "the count of transmitted
bytes awaiting acknowledgment".

Control plane (:class:`LimiterClassifier`): per extraction interval,
examine the recent window of (flight size, loss delta) samples, following
Ghasemi et al. (Dapper):

- losses observed while the flight size had been expanding → the
  **network** is the limit;
- flight size stable with no losses → the **endpoint** is the limit;
  sub-classified as *receiver*-limited when the flight pins near the
  advertised window, else *sender*-limited;
- flight still expanding without losses → the flow is *probing* (no
  verdict yet).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.netsim.packet import F_ACK, F_SYN
from repro.p4.pipeline import PipelineStage, StandardMetadata
from repro.p4.parser import ParsedHeaders
from repro.p4.registers import RegisterArray
from repro.p4.runtime import P4Program
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_INGRESS_TAP
from repro.core.reports import LimiterVerdict


class FlightSizeStage(PipelineStage):
    name = "flight_size"

    def __init__(self, program: P4Program, config: MonitorConfig) -> None:
        slots = config.flow_slots
        self.high_seq = program.register(RegisterArray("flight_high_seq", slots, 32))
        self.high_ack = program.register(RegisterArray("flight_high_ack", slots, 32))
        self.flow_rwnd = program.register(RegisterArray("flow_rwnd", slots, 32))

    def process(self, hdr: ParsedHeaders, meta: StandardMetadata) -> None:
        if meta.ingress_port != PORT_INGRESS_TAP:
            return
        if hdr.payload_len > 0:
            # Data direction: remember the furthest byte put on the wire.
            idx = meta.flow_slot
            self.high_seq.maximum(idx, (hdr.seq + hdr.payload_len) & 0xFFFFFFFF)
        elif hdr.flags & F_ACK and not hdr.flags & F_SYN:
            # ACK direction: this packet's *reversed* ID is the data flow.
            idx = meta.rev_slot
            self.high_ack.maximum(idx, hdr.ack)
            self.flow_rwnd.write(idx, hdr.window)

    def flight_bytes(self, slot: int) -> int:
        """Current flight size of the (data-direction) flow in ``slot``."""
        return max(0, self.high_seq.read(slot) - self.high_ack.read(slot))


#: The classifier's rules in order of precedence — losses, flight pinned
#: at the advertised window, stable flight, a trickle, flight expanding
#: without loss — then what holds when none fires: a rule's index is
#: the verdict code :meth:`LimiterClassifier.step` returns.
RULE_VERDICTS = (LimiterVerdict.NETWORK_LIMITED, LimiterVerdict.RECEIVER_LIMITED,
                 LimiterVerdict.SENDER_LIMITED, LimiterVerdict.SENDER_LIMITED,
                 LimiterVerdict.PROBING, LimiterVerdict.UNKNOWN)
NO_RULE = len(RULE_VERDICTS) - 1

# Flows that keep less than this in flight (with no losses) are not
# filling the pipe: the application is the limit even if the sparse
# per-interval flight samples look noisy.
MIN_FLIGHT_BYTES = 32_768


class LimiterClassifier:
    """Control-plane side: turns per-interval samples into verdicts.

    The history is columnar — ``flow_id -> row`` of two ``int64``
    ``(rows, HISTORY)`` rings (flight bytes, loss deltas) and the number
    of samples ever written per row — so a loss tick records and
    classifies all its flows in one pass (:meth:`step`); ``observe`` and
    ``classify`` are a batch of one of the same code.  ``forget`` frees
    the row for the next flow; the matrices double when full."""

    HISTORY = 16  # samples kept per flow, so the largest ``limiter_window``

    def __init__(self, config: MonitorConfig) -> None:
        self.window = config.limiter_window
        self.stability_cv = config.limiter_stability_cv
        self.rwnd_fraction = config.limiter_rwnd_fraction
        self._rows: Dict[int, int] = {}
        self._free: List[int] = []      # every other allocated row
        self._flight = np.zeros((64, self.HISTORY), dtype=np.int64)
        self._loss = np.zeros_like(self._flight)
        self._count = np.zeros(len(self._flight), dtype=np.int64)

    def _last(self, rows: np.ndarray, n: int):
        """The last ``n`` samples of ``rows``, oldest first, as
        C-contiguous ``(len(rows), n)`` matrices (a row holding fewer
        has them at the end)."""
        cols = (self._count[rows, None] - n + np.arange(n)) % self.HISTORY
        return self._flight[rows[:, None], cols], self._loss[rows[:, None], cols]

    def step(self, flow_ids: Sequence[int], flight_bytes: Sequence[int],
             loss_deltas: Sequence[int], rwnd_bytes: Sequence[int]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One loss tick: append each (distinct) flow's ``(flight, loss
        delta)`` sample, then classify them all.  Four numpy columns in
        flow order — the verdict code (an index of :data:`RULE_VERDICTS`),
        mean flight, flight CV and loss sum over the recent window."""
        return self._classify(self._record(flow_ids, flight_bytes, loss_deltas),
                              np.asarray(rwnd_bytes, dtype=np.int64))

    def _record(self, flow_ids: Sequence[int], flight_bytes: Sequence[int],
                loss_deltas: Sequence[int]) -> np.ndarray:
        rows = list(map(self._rows.get, flow_ids))
        if None in rows:
            for i, flow_id in enumerate(flow_ids):
                if rows[i] is None:
                    rows[i] = self._rows[flow_id] = (
                        self._free.pop() if self._free else len(self._rows))
            while len(self._count) < len(self._rows) + len(self._free):
                self._flight, self._loss, self._count = (
                    np.concatenate((a, np.zeros_like(a)))
                    for a in (self._flight, self._loss, self._count))
        rows = np.array(rows, dtype=np.intp)
        written = self._count[rows]
        cols = written % self.HISTORY
        self._flight[rows, cols] = flight_bytes
        self._loss[rows, cols] = loss_deltas
        self._count[rows] = written + 1
        return rows

    def _classify(self, rows: np.ndarray, rwnd: np.ndarray):
        lengths = np.minimum(self._count[rows], self.window)
        rule = np.full(len(rows), NO_RULE)     # fewer than two samples
        mean_flight, flight_cv = np.zeros(len(rows)), np.zeros(len(rows))
        loss_sum = np.zeros(len(rows), dtype=np.int64)
        # Young flows hold fewer samples: one pass per distinct length.
        for n in set(lengths.tolist()) - {0, 1}:
            sel = np.flatnonzero(lengths == n)
            flights, losses = self._last(rows[sel], n)
            losses = np.add.reduce(losses, axis=1)
            # On a C-contiguous matrix the row reductions sum in the
            # order ``stats.coefficient_of_variation`` does — its CV to
            # the last bit (``flight_cv`` is archived) — and the sum of
            # byte counts is exact, so the mean is ``sum() / n``'s.
            mean = np.add.reduce(flights, axis=1) / n
            dev = flights - mean[:, None]
            np.multiply(dev, dev, out=dev)
            with np.errstate(divide="ignore", invalid="ignore"):
                cv = np.where(mean == 0.0, 0.0,
                              np.sqrt(np.add.reduce(dev, axis=1) / n) / mean)
            rule[sel] = np.select(
                [losses > 0,
                 # The receiver caps the flow regardless of sample jitter.
                 (rwnd[sel] > 0) & (mean >= self.rwnd_fraction * rwnd[sel]),
                 cv <= self.stability_cv,
                 # Never fills the pipe (and never loses): the application
                 # is the limit even if sparse samples look noisy.
                 mean < MIN_FLIGHT_BYTES,
                 # Congestion control is still probing.
                 (flights[:, -1] > flights[:, 0]) & (n >= 3)],
                range(NO_RULE), default=NO_RULE)
            mean_flight[sel], flight_cv[sel], loss_sum[sel] = mean, cv, losses
        return rule, mean_flight, flight_cv, loss_sum

    def observe(self, flow_id: int, flight_bytes: int, loss_delta: int) -> None:
        self._record((flow_id,), (flight_bytes,), (loss_delta,))

    def classify(self, flow_id: int, rwnd_bytes: int) -> Tuple[LimiterVerdict, float, float, int]:
        """Returns (verdict, mean flight, flight CV, loss sum) over the
        recent window."""
        row = self._rows.get(flow_id)
        if row is None:
            return LimiterVerdict.UNKNOWN, 0.0, 0.0, 0
        rule, mean_flight, flight_cv, loss_sum = (
            column.item() for column in self._classify(np.array([row]), np.array([rwnd_bytes])))
        return RULE_VERDICTS[rule], mean_flight, flight_cv, loss_sum

    def forget(self, flow_id: int) -> None:
        row = self._rows.pop(flow_id, None)
        if row is not None:
            self._count[row] = 0
            self._free.append(row)

    def history(self) -> Dict[int, List[List[int]]]:
        """Per flow, the ``[flight_bytes, loss_delta]`` samples still
        held, oldest first (what a checkpoint serialises)."""
        rows = np.array(list(self._rows.values()), dtype=np.intp)
        pairs = np.dstack(self._last(rows, self.HISTORY)).tolist()
        held = np.minimum(self._count[rows], self.HISTORY).tolist()
        return {flow_id: samples[self.HISTORY - n:]     # a young row's tail
                for flow_id, samples, n in zip(self._rows, pairs, held)}
