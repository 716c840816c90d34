"""Ground-truth oracle: exact measurements from the netsim event stream.

The oracle subscribes to :class:`repro.netsim.observer.EventStream` events
taken at *the same observation points as the optical TAPs* (core-switch
ingress, bottleneck-port egress) plus the loss points the TAPs cannot see
(every queue, every link).  It keeps exact per-flow state in unbounded
Python structures — no hashing, no fixed-size stashes, no sketches — so
every number it produces is true by construction:

- **bytes/packets**: per 5-tuple, every ingress-TAP-point arrival with its
  IPv4 total length (the unit ``flow_bytes`` accumulates) and timestamp,
  so windowed counts (e.g. "since the flow claimed its register slot")
  are exact;
- **RTT**: the eACK pairing of Algorithm 1 executed with an exact
  dictionary — a data packet stashes ``(ack-direction key, eACK) -> ts``
  (retransmissions overwrite, as the latest copy is what the ACK answers)
  and the matching pure ACK yields ``now - ts``;
- **queue residency**: packets are tracked by identity (``Packet.uid``)
  from switch ingress to tapped-port egress — the true time spent inside
  the tapped switch, serialisation included, which is precisely the
  quantity §4.2 derives from TAP timestamp deltas;
- **drops**: every tail drop and every in-link loss, attributed to the
  dropped packet's flow and split into payload-carrying ("data") and pure
  control segments, because sequence-regression loss counting only ever
  answers for lost *data*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.observer import EventStream, NetEvent, NetEventKind
from repro.netsim.packet import F_ACK, F_SYN, PROTO_TCP, FiveTuple, Packet


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
    # What the P4 algorithm *should* measure: eACK matching replayed with
    # the data plane's exact discipline (no re-stash on a sequence
    # regression, staleness cutoff) but unbounded exact state.  Differs
    # from ``rtt_samples`` when a retransmitted segment's ACK matches the
    # original copy's timestamp — a recovery-time sample the algorithm
    # reports as RTT whenever it sits under the staleness cutoff.
    expected_rtt_samples: List[Tuple[int, int]] = field(default_factory=list)
    qdelay_samples: List[Tuple[int, int]] = field(default_factory=list)  # (ts, delay_ns)
    drops_data: int = 0
    drops_control: int = 0
    # Exact replication of the data plane's sequence-regression rule
    # (RFC 1982 serial compare against the previous data packet's seq),
    # run over the same ingress arrivals with unbounded state: what the
    # ``pkt_loss`` register *should* contain absent collisions.
    prev_seq: int = 0
    regressions: int = 0

    @property
    def is_tcp(self) -> bool:
        return self.five_tuple.proto == PROTO_TCP

    @property
    def drops(self) -> int:
        return self.drops_data + self.drops_control

    def packets_since(self, ts_ns: int) -> Tuple[int, int]:
        """(packets, total-length bytes) of arrivals with ``ts >= ts_ns``."""
        pkts = 0
        nbytes = 0
        for ts, length in self.arrivals:
            if ts >= ts_ns:
                pkts += 1
                nbytes += length
        return pkts, nbytes

    def payload_bytes_until(self, ts_ns: int) -> int:
        """Payload bytes of data arrivals strictly before ``ts_ns``
        (the window the count-min sketch saw before a slot claim)."""
        # arrivals stores total length; payload windows need their own sum.
        total = 0
        for ts, payload in self._payload_arrivals:
            if ts < ts_ns:
                total += payload
        return total

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
        self.rtt_max_age_ns = rtt_max_age_ns
        # Exact eACK stash: (ACK-direction key, expected ack) -> ingress ts.
        self._eack: Dict[Tuple[FiveTuple, int], int] = {}
        # Same stash under the data plane's discipline: armed only by
        # non-regressing data packets (the P4 code never re-stashes a
        # retransmission), so a later ACK answers the *original* copy.
        self._eack_p4: Dict[Tuple[FiveTuple, int], int] = {}
        # Packet identity -> core-switch ingress ts (queue residency).
        self._inflight: Dict[int, int] = {}
        self.events_seen = 0
        self.rtt_matches = 0
        self.qdelay_matches = 0
        if stream is not None:
            stream.subscribe(self.on_event)

    # -- event dispatch -----------------------------------------------------

    def on_event(self, ev: NetEvent) -> None:
        self.events_seen += 1
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
            truth = FlowTruth(ft)
            self.flows[ft] = truth
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
        if pkt.payload_len > 0:
            key = (ft.reversed(), pkt.expected_ack)
            if (truth.prev_seq != 0
                    and ((pkt.seq - truth.prev_seq) & 0xFFFFFFFF) >= 0x80000000):
                truth.regressions += 1
            else:
                truth.prev_seq = pkt.seq
                self._eack_p4[key] = ts_ns
            # Path-truth stash: overwriting on retransmission (the eventual
            # ACK answers the latest copy actually delivered).
            self._eack[key] = ts_ns
        elif pkt.flags & F_ACK and not pkt.flags & F_SYN:
            stashed = self._eack.pop((ft, pkt.ack), None)
            if stashed is not None:
                rtt = ts_ns - stashed
                self.rtt_matches += 1
                # The RTT belongs to the *data* direction's flow — the one
                # whose register the control plane reads via rev_flow_id.
                self._truth(ft.reversed()).rtt_samples.append((ts_ns, rtt))
            expected = self._eack_p4.pop((ft, pkt.ack), None)
            if expected is not None:
                rtt = ts_ns - expected
                if rtt <= self.rtt_max_age_ns:
                    self._truth(ft.reversed()).expected_rtt_samples.append(
                        (ts_ns, rtt))

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
