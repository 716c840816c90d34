"""Ground-truth oracle: exact measurements from the netsim event stream.

The oracle subscribes to :class:`repro.netsim.observer.EventStream` events
taken at *the same observation points as the optical TAPs* (core-switch
ingress, bottleneck-port egress) plus the loss points the TAPs cannot see
(every queue, every link).  Its path truth is unbounded Python state — no
hashing, no fixed-size stashes, no sketches:

- **bytes/packets**: per 5-tuple, every ingress arrival with its IPv4
  total length (the ``flow_bytes`` unit) and timestamp, so windowed
  counts (e.g. "since the flow claimed its slot") are exact;
- **path RTT**: a data packet stashes ``(ack-direction key, eACK) -> ts``
  (a retransmission overwrites: the ACK answers the latest copy) and the
  matching pure ACK yields the RTT;
- **queue residency**: a packet tracked by identity (``Packet.uid``) from
  switch ingress to tapped-port egress — the quantity §4.2 derives from
  TAP timestamp deltas;
- **drops**: every tail drop and in-link loss, split into payload-carrying
  ("data") and pure control segments, because sequence-regression loss
  counting only ever answers for lost *data*.

What Algorithm 1 *should* measure (``expected_rtt_samples``,
``regressions``) is not derived here a second time: each TCP arrival
also runs through a dark reference, the product's own scalar parser,
flow IDs and RTT/loss stage with one register cell per 32-bit flow ID
and per eACK signature, so only capacity separates it from the product.
A bug in those stages is therefore in both; ``--compare-paths`` and the
path-truth checks catch it, not ``loss_regressions`` or ``rtt_*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_INGRESS_TAP, FlowIdEngine
from repro.core.rtt import RttLossStage
from repro.netsim.observer import EventStream, NetEvent, NetEventKind
from repro.netsim.packet import F_ACK, F_SYN, PROTO_TCP, FiveTuple, Packet
from repro.p4.parser import HeaderParser
from repro.p4.pipeline import StandardMetadata
from repro.p4.runtime import P4Program
from repro.telemetry import hooks


@dataclass
class FlowTruth:
    """Exact per-flow (per direction) ground truth."""

    five_tuple: FiveTuple
    packets: int = 0
    bytes_total_len: int = 0          # sum of IPv4 total lengths (flow_bytes unit)
    payload_bytes: int = 0
    first_ts_ns: int = -1
    last_ts_ns: int = -1
    arrivals: List[Tuple[int, int]] = field(default_factory=list)  # (ts, ip_total_len)
    rtt_samples: List[Tuple[int, int]] = field(default_factory=list)  # (ts, rtt_ns)
    # The reference's eACK matches: unlike ``rtt_samples``, an ACK of a
    # retransmitted segment pairs with the original copy (a recovery-time
    # sample, kept whenever it is under the staleness cutoff).
    expected_rtt_samples: List[Tuple[int, int]] = field(default_factory=list)
    qdelay_samples: List[Tuple[int, int]] = field(default_factory=list)  # (ts, delay_ns)
    drops_data: int = 0
    drops_control: int = 0
    # The reference's ``pkt_loss`` cell for this flow, as of its latest
    # arrival: what the product's register *should* hold absent aliasing.
    regressions: int = 0

    @property
    def is_tcp(self) -> bool:
        return self.five_tuple.proto == PROTO_TCP

    @property
    def drops(self) -> int:
        return self.drops_data + self.drops_control

    def packets_since(self, ts_ns: int) -> Tuple[int, int]:
        """(packets, total-length bytes) of arrivals with ``ts >= ts_ns``."""
        lengths = [length for ts, length in self.arrivals if ts >= ts_ns]
        return len(lengths), sum(lengths)

    def payload_bytes_until(self, ts_ns: int) -> int:
        """Payload bytes of data arrivals strictly before ``ts_ns``
        (the window the count-min sketch saw before a slot claim)."""
        return sum(payload for ts, payload in self._payload_arrivals if ts < ts_ns)

    @property
    def rtt_values_ns(self) -> List[int]:
        return [r for _, r in self.rtt_samples]

    @property
    def expected_rtt_values_ns(self) -> List[int]:
        return [r for _, r in self.expected_rtt_samples]

    @property
    def max_qdelay_ns(self) -> int:
        return max((d for _, d in self.qdelay_samples), default=0)

    def max_qdelay_in_window(self, start_ns: int, end_ns: int) -> int:
        return max((d for ts, d in self.qdelay_samples if start_ns <= ts <= end_ns),
                   default=0)

    # populated by the oracle; kept out of the dataclass repr noise
    _payload_arrivals: List[Tuple[int, int]] = field(default_factory=list, repr=False)


class GroundTruthOracle:
    """Subscribes to an :class:`EventStream` and accumulates
    :class:`FlowTruth` per 5-tuple."""

    def __init__(self, stream: Optional[EventStream] = None,
                 rtt_max_age_ns: int = 1_000_000_000) -> None:
        self.flows: Dict[FiveTuple, FlowTruth] = {}
        # Exact eACK stash: (ACK-direction key, expected ack) -> ingress ts.
        self._eack: Dict[Tuple[FiveTuple, int], int] = {}
        # The reference is built dark: a live tracer would give each of
        # its 2^32-cell registers a dense last-writer list.  It keeps no
        # flow table: the RTT/loss stage reads only the IDs and slots.
        observers = hooks.tracer, hooks.profiler
        hooks.tracer = hooks.profiler = None
        try:
            config = MonitorConfig(flow_slots=2**32, eack_table_size=2**32,
                                   rtt_max_age_ns=rtt_max_age_ns)
            self._parser = HeaderParser()
            self._ids = FlowIdEngine(config.flow_slots)
            self._algorithm = RttLossStage(P4Program("oracle-reference"), config)
        finally:
            hooks.tracer, hooks.profiler = observers
        # Packet identity -> core-switch ingress ts (queue residency).
        self._inflight: Dict[int, int] = {}
        self.rtt_matches = 0
        self.qdelay_matches = 0
        if stream is not None:
            stream.subscribe(self.on_event)

    # -- event dispatch -----------------------------------------------------

    def on_event(self, ev: NetEvent) -> None:
        kind = ev.kind
        if kind is NetEventKind.SWITCH_INGRESS:
            self._on_ingress(ev.pkt, ev.time_ns)
        elif kind is NetEventKind.PORT_EGRESS:
            self._on_egress(ev.pkt, ev.time_ns)
        elif kind in (NetEventKind.QUEUE_DROP, NetEventKind.IMPAIRMENT_DROP):
            self._on_drop(ev.pkt)

    def _truth(self, ft: FiveTuple) -> FlowTruth:
        truth = self.flows.get(ft)
        if truth is None:
            truth = self.flows[ft] = FlowTruth(ft)
        return truth

    # -- observation points --------------------------------------------------

    def _on_ingress(self, pkt: Packet, ts_ns: int) -> None:
        ft = pkt.five_tuple
        truth = self._truth(ft)
        truth.packets += 1
        truth.bytes_total_len += pkt.ip_total_len
        truth.payload_bytes += pkt.payload_len
        if truth.first_ts_ns < 0:
            truth.first_ts_ns = ts_ns
        truth.last_ts_ns = ts_ns
        truth.arrivals.append((ts_ns, pkt.ip_total_len))
        if pkt.payload_len > 0:
            truth._payload_arrivals.append((ts_ns, pkt.payload_len))
        self._inflight[pkt.uid] = ts_ns
        if pkt.proto != PROTO_TCP:
            return
        self._measure(pkt, ts_ns, truth)
        if pkt.payload_len > 0:
            # Path-truth stash: overwriting on retransmission (the eventual
            # ACK answers the latest copy actually delivered).
            self._eack[(ft.reversed(), pkt.expected_ack)] = ts_ns
        elif pkt.flags & F_ACK and not pkt.flags & F_SYN:
            stashed = self._eack.pop((ft, pkt.ack), None)
            if stashed is not None:
                self.rtt_matches += 1
                # The RTT belongs to the *data* direction's flow — the one
                # whose register the control plane reads via rev_flow_id.
                self._truth(ft.reversed()).rtt_samples.append(
                    (ts_ns, ts_ns - stashed))

    def _measure(self, pkt: Packet, ts_ns: int, truth: FlowTruth) -> None:
        """Run a TCP arrival through the reference; keep what it measured."""
        hdr = self._parser.parse(pkt)
        meta = StandardMetadata(ingress_port=PORT_INGRESS_TAP,
                                ingress_timestamp_ns=ts_ns)
        meta.flow_id, meta.rev_flow_id, meta.flow_slot, meta.rev_slot = self._ids.ids(hdr)
        algorithm = self._algorithm
        matches = algorithm.rtt_matches
        algorithm.process(hdr, meta)
        truth.regressions = algorithm.pkt_loss.read(meta.flow_slot)
        if algorithm.rtt_matches != matches:
            self._truth(truth.five_tuple.reversed()).expected_rtt_samples.append(
                (ts_ns, algorithm.rtt.read(meta.flow_slot)))

    def _on_egress(self, pkt: Packet, ts_ns: int) -> None:
        ts_in = self._inflight.pop(pkt.uid, None)
        if ts_in is None:
            return
        self.qdelay_matches += 1
        self._truth(pkt.five_tuple).qdelay_samples.append((ts_ns, ts_ns - ts_in))

    def _on_drop(self, pkt: Packet) -> None:
        truth = self._truth(pkt.five_tuple)
        if pkt.payload_len > 0:
            truth.drops_data += 1
        else:
            truth.drops_control += 1

    # -- aggregate truth ------------------------------------------------------

    def truth_for(self, ft: FiveTuple) -> Optional[FlowTruth]:
        return self.flows.get(ft)

    @property
    def total_tcp_payload_bytes(self) -> int:
        """TCP payload at the ingress point — the upper bound on total
        mass inserted into the long-flow sketch (the P4 parser rejects
        non-TCP packets, so UDP never reaches the pipeline)."""
        return sum(t.payload_bytes for t in self.flows.values() if t.is_tcp)

    @property
    def global_max_qdelay_ns(self) -> int:
        return max((t.max_qdelay_ns for t in self.flows.values()), default=0)

    def max_qdelay_in_window(self, start_ns: int, end_ns: int) -> int:
        return max((t.max_qdelay_in_window(start_ns, end_ns)
                    for t in self.flows.values()), default=0)
