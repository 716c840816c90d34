"""TCP connection state machines and the per-host stack.

Scope: what the paper's experiments exercise.  Data flows client→server
(iPerf3 style); the server returns a pure-ACK stream (acking every
segment, which is also the regime the eACK RTT algorithm of §4.3 assumes).
Implemented mechanisms:

- three-way handshake with SYN retransmission,
- cumulative ACKs, out-of-order reassembly at the receiver,
- NewReno fast retransmit / fast recovery with partial-ACK retransmission,
- RFC 6298 RTO estimation with exponential backoff,
- receiver flow control via the advertised window (receiver-limited flows),
- application pacing (sender-limited flows),
- FIN teardown, so terminated long flows are observable (§3.3.2).

Payload bytes are virtual: segments carry lengths, not data.  Sequence
arithmetic is exact (Python ints) and masked to 32 bits on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.engine import Event, Simulator
from repro.netsim.host import Host
from repro.netsim.packet import (
    F_ACK,
    F_CWR,
    F_ECE,
    F_FIN,
    F_SYN,
    PROTO_TCP,
    FiveTuple,
    Packet,
)
from repro.netsim.units import NS_PER_S, millis, seconds
from repro.tcp.cc import CongestionControl, make_cc

INFINITE_DATA = 1 << 50
_UNKNOWN = object()  # a pacing rate not yet computed


def _unwrap(wire: int, ref: int) -> int:
    """Map a 32-bit wire sequence number to the unbounded one nearest
    ``ref`` (the sender's snd_una, or the receiver's rcv_nxt)."""
    delta = (wire - ref) & 0xFFFFFFFF
    return ref + delta if delta < 0x80000000 else ref + delta - 0x100000000


def _insert_range(ranges: List[Tuple[int, int]], start: int, end: int
                  ) -> List[Tuple[int, int]]:
    """``ranges`` (sorted, disjoint) with [start, end) merged in: the SACK
    scoreboard and the receiver's out-of-order queue."""
    merged: List[Tuple[int, int]] = []
    for s, e in ranges:
        if end < s or start > e:
            merged.append((s, e))
        else:
            start = min(start, s)
            end = max(end, e)
    merged.append((start, end))
    merged.sort()
    return merged


class TcpState(Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"
    CLOSE_WAIT = "close-wait"
    DONE = "done"


@dataclass
class ConnectionStats:
    """Ground-truth counters kept by the endpoint (what a DTN would log).

    The monitor's reports are validated against these in the tests.
    """

    start_ns: int = 0
    established_ns: int = 0
    end_ns: int = 0
    segments_sent: int = 0
    bytes_sent: int = 0          # app-stream bytes, first transmissions only
    bytes_acked: int = 0
    retransmissions: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    ecn_reactions: int = 0       # sender rate cuts triggered by ECE
    ce_received: int = 0         # CE-marked data packets seen (receiver)
    rtt_samples: List[Tuple[int, int]] = field(default_factory=list)  # (t, rtt_ns)

    def avg_throughput_bps(self) -> float:
        span = self.end_ns - self.established_ns
        if span <= 0:
            return 0.0
        return self.bytes_acked * 8 * NS_PER_S / span


class TcpConnection:
    """One endpoint of a TCP connection."""

    INITIAL_RTO_NS = seconds(1)
    MIN_RTO_NS = millis(200)
    MAX_RTO_NS = seconds(60)
    DUPACK_THRESHOLD = 3

    def __init__(
        self,
        stack: "TcpHostStack",
        local_port: int,
        remote_ip: int,
        remote_port: int,
        mss: int,
        cc: CongestionControl,
        rcv_buf_bytes: int = 4 * 1024 * 1024,
        pacing_bps: Optional[int] = None,
        iss: int = 100_000,
        is_server: bool = False,
        sack_enabled: bool = True,
        delayed_ack: bool = False,
        ecn_enabled: bool = False,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.host = stack.host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.mss = mss
        self.cc = cc
        # Cached once: whether the controller models its own pacing rate
        # (BBR).  Saves a getattr per _pacing_rate_bps call on the hot path.
        self._cc_pacing_fn = getattr(cc, "pacing_rate_bps", None)
        self.rcv_buf_bytes = rcv_buf_bytes
        self.pacing_bps = pacing_bps
        self.is_server = is_server

        self.state = TcpState.CLOSED
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.peer_rwnd = mss  # until the handshake tells us better
        self.rcv_nxt = 0

        # Application send stream (byte counts; data is virtual).
        self._app_total = 0          # bytes the app has offered
        self._data_start = iss + 1   # first data sequence number
        self._highest_sent = iss + 1  # past-the-end of data ever transmitted
        self._fin_seq: Optional[int] = None
        self._closing = False

        # Loss recovery.
        self.sack_enabled = sack_enabled
        self._sacked: List[Tuple[int, int]] = []  # scoreboard (sorted, disjoint)
        self._rtx_next = iss  # next candidate hole for SACK retransmission
        self._dupacks = 0
        self._in_recovery = False
        self._recover = iss
        self._recovery_inflate = 0
        self._rto_ns = self.INITIAL_RTO_NS
        self._rto_backoff = 1
        self._srtt: Optional[float] = None
        self._rttvar: float = 0.0
        self._rto_timer: Optional[Event] = None
        self._rto_deadline: Optional[int] = None
        self._rto_fire_at = 0
        self._rtt_sample_end: Optional[int] = None
        self._rtt_sample_time = 0

        # Pacing.  ``pacing_bps`` is an application rate cap (Fig. 12's
        # sender-limited knob).  ``auto_pacing`` models the fq/pacing
        # behaviour of a modern Linux sender: segments leave at
        # ``gain * cwnd / srtt`` instead of line-rate bursts (gain 2 in
        # slow start, 1.2 in congestion avoidance, per sch_fq defaults).
        self.auto_pacing = True
        self._next_pace_ns = 0
        # A _pace_fire is queued; never cancelled (a stale fire no-ops).
        self._pace_pending = False

        # ECN (RFC 3168): negotiated on the handshake; data goes out
        # ECT(0); CE marks are echoed back via ECE until the sender
        # confirms its rate cut with CWR.  One reaction per window.
        self.ecn_enabled = ecn_enabled
        self._ecn_on = False
        self._ecn_echo = False
        self._ecn_react_seq = iss
        self._send_cwr = False

        # Delayed ACKs (RFC 1122 §4.2.3.2): ack every 2nd in-order
        # segment, or after 40 ms, whichever first.  Out-of-order data is
        # always acked immediately (dupacks drive fast retransmit).
        self.delayed_ack = delayed_ack
        self.DELACK_TIMEOUT_NS = millis(40)
        self._delack_pending = 0
        self._delack_timer: Optional[Event] = None

        # Receiver reassembly: disjoint, sorted (start, end) byte ranges
        # above rcv_nxt.
        self._ooo: List[Tuple[int, int]] = []
        self.bytes_received = 0  # in-order app-stream bytes delivered
        self._peer_fin_seq: Optional[int] = None

        self._ip_id = 0
        self.stats = ConnectionStats()
        self.on_established: List[Callable[["TcpConnection"], None]] = []
        self.on_close: List[Callable[["TcpConnection"], None]] = []
        self.on_receive: List[Callable[["TcpConnection", int], None]] = []

    # ------------------------------------------------------------------ API

    @property
    def five_tuple(self) -> FiveTuple:
        """Key of packets *sent by this endpoint*."""
        return FiveTuple(self.host.ip, self.remote_ip, self.local_port, self.remote_port)

    def connect(self) -> None:
        """Client side: begin the three-way handshake."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TcpState.SYN_SENT
        self.stats.start_ns = self.sim.now
        syn_flags = F_SYN
        if self.ecn_enabled:
            syn_flags |= F_ECE | F_CWR  # RFC 3168 negotiation
        self._send_ctrl(syn_flags, seq=self.iss)
        self.snd_nxt = self.iss + 1
        self._arm_rto()

    def write(self, nbytes: int) -> None:
        """Offer ``nbytes`` more application bytes for transmission."""
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        if self._closing:
            raise RuntimeError("write() after close()")
        self._app_total += nbytes
        self._maybe_send()

    def close(self) -> None:
        """Stop offering data; send FIN once everything queued is out."""
        if self._closing:
            return
        self._closing = True
        if self._app_total >= INFINITE_DATA // 2:
            # Open-ended stream (iPerf duration mode): freeze it at the
            # high-water mark so everything already transmitted stays part
            # of the stream (and is retransmitted if lost), but nothing new
            # is generated.
            self._app_total = self._highest_sent - self._data_start
        self._maybe_send()

    @property
    def flight_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def data_end(self) -> int:
        """Sequence number just past the last app byte."""
        return self._data_start + self._app_total

    # ------------------------------------------------------------ packet I/O

    def _send_ctrl(self, flags: int, seq: int, ack: int = 0) -> None:
        self._ip_id = ip_id = (self._ip_id + 1) & 0xFFFF
        rcv_buf = self.rcv_buf_bytes
        self.host.send(Packet.tcp_fast(
            self.host.ip, self.remote_ip, self.local_port, self.remote_port,
            seq, ack, flags, rcv_buf if rcv_buf <= 0xFFFFFFFF else 0xFFFFFFFF,
            0, ip_id, self.sim.now))

    def _send_segment(self, seq: int, length: int, retransmit: bool) -> None:
        flags = F_ACK
        if self._send_cwr:
            flags |= F_CWR  # confirm the ECN-triggered rate cut
            self._send_cwr = False
        now = self.sim.now
        self._ip_id = ip_id = (self._ip_id + 1) & 0xFFFF
        rcv_buf = self.rcv_buf_bytes
        pkt = Packet.tcp_fast(
            self.host.ip, self.remote_ip, self.local_port, self.remote_port, seq,
            self.rcv_nxt, flags, rcv_buf if rcv_buf <= 0xFFFFFFFF else 0xFFFFFFFF,
            length, ip_id, now)
        if self._ecn_on:
            pkt.ecn = Packet.ECN_ECT0
        stats = self.stats
        stats.segments_sent += 1
        if retransmit:
            stats.retransmissions += 1
            # Karn's algorithm: a retransmission invalidates the RTT sample.
            self._rtt_sample_end = None
        else:
            stats.bytes_sent += length
            if self._rtt_sample_end is None:
                self._rtt_sample_end = seq + length
                self._rtt_sample_time = now
        self.host.send(pkt)

    # ------------------------------------------------------------ send logic

    def _maybe_send(self) -> None:
        """The sender loop: send what the window, the data and the pacer
        allow now, or queue one ``_pace_fire`` for when the pacer will.
        Nothing in the loop moves snd_una, the scoreboard, cwnd, the
        pacing rate or the peer window (only snd_nxt advances), so each
        is read once; SACKed bytes are not in flight (RFC 6675 'pipe')."""
        if self.state is not TcpState.ESTABLISHED:
            return
        now = self.sim.now
        next_pace = self._next_pace_ns
        if self._pace_pending and now < next_pace and not self._closing:
            return  # pacing-limited: the queued _pace_fire resumes sending
        mss = self.mss
        snd_nxt = self.snd_nxt
        sacked = self._sacked
        inflight = snd_nxt - self.snd_una
        if sacked:
            inflight -= sum(e - s for s, e in sacked)
        cc = self.cc
        cwnd = int(cc.cwnd)
        if cwnd < cc.mss:
            cwnd = cc.mss  # cc.cwnd_bytes, without the property call
        window = cwnd + self._recovery_inflate
        peer_rwnd = self.peer_rwnd
        if peer_rwnd < window:
            window = peer_rwnd
        data_start = self._data_start
        data_end = data_start + self._app_total
        highest = self._highest_sent
        pace_rate = _UNKNOWN
        while inflight < window:
            remaining = data_end - (snd_nxt if snd_nxt > data_start else data_start)
            if remaining <= 0:
                break
            if pace_rate is _UNKNOWN:
                pace_rate = self._pacing_rate_bps(cwnd)
            if pace_rate is not None and now < next_pace:
                if not self._pace_pending:
                    self._pace_pending = True
                    self.sim.post(next_pace, self._pace_fire)
                return
            length = mss if mss < remaining else remaining
            if sacked and snd_nxt < highest:
                # Re-covering old ground after an RTO: jump over a range
                # the scoreboard says the receiver holds, and stop short
                # of the next one.
                jumped = False
                for s, e in sacked:
                    if e <= snd_nxt:
                        continue
                    if s <= snd_nxt:
                        self.snd_nxt = snd_nxt = e
                        jumped = True
                    elif s - snd_nxt < length:
                        length = s - snd_nxt
                    break
                if jumped:
                    # The jumped-over range is SACKed, so in-flight is
                    # unchanged; re-derive to stay exact.
                    inflight = snd_nxt - self.snd_una - sum(e - s for s, e in sacked)
                    continue
            usable = window - inflight
            if usable < length:
                # RFC 1122 sender-side silly-window avoidance: send a
                # sub-MSS segment only when it is at least half the peer's
                # window (covers rwnd < MSS receivers); otherwise wait for
                # the window to open.
                if usable < min(mss, max(1, peer_rwnd // 2)):
                    break
                length = usable
            # After an RTO rewind this loop re-covers old ground; only bytes
            # beyond the historical high-water mark are first transmissions.
            self._send_segment(snd_nxt, length, snd_nxt + length <= highest)
            self.snd_nxt = snd_nxt = snd_nxt + length
            inflight += length
            if snd_nxt > highest:
                self._highest_sent = highest = snd_nxt
            if self._rto_deadline is None:
                self._arm_rto()
            if pace_rate is not None:
                if next_pace < now:
                    next_pace = now
                next_pace += length * 8 * NS_PER_S // pace_rate
                self._next_pace_ns = next_pace
        if self._closing:
            self._maybe_send_fin()

    def _pacing_rate_bps(self, cwnd_bytes: int) -> Optional[int]:
        """Effective pacing rate: the app cap if set, else a rate chosen
        by the congestion controller (BBR's model), else the fq-style
        cwnd/srtt rate once an RTT estimate exists."""
        if self.pacing_bps is not None:
            return self.pacing_bps
        if not self.auto_pacing:
            return None
        if self._cc_pacing_fn is not None:
            rate = self._cc_pacing_fn()
            if rate is not None:
                return rate
        if self._srtt is None or self._srtt <= 0:
            return None
        gain = 2.0 if self.cc.in_slow_start() else 1.2
        return max(1, int(gain * cwnd_bytes * 8 * NS_PER_S / self._srtt))

    def _maybe_send_fin(self) -> None:
        if not self._closing or self._fin_seq is not None:
            return
        if self.snd_nxt >= self.data_end:
            self._fin_seq = self.snd_nxt
            self._send_ctrl(F_FIN | F_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self.snd_nxt += 1
            self.state = TcpState.FIN_SENT
            self._arm_rto()

    def _pace_fire(self) -> None:
        self._pace_pending = False
        self._maybe_send()

    # -------------------------------------------------------------- RTO path

    def _arm_rto(self) -> None:
        deadline = self.sim.now + self._rto_ns * self._rto_backoff
        self._rto_deadline = deadline
        # Lazy timer (hot path): every cumulative ACK re-arms the RTO, so
        # cancelling and re-allocating an Event per ACK dominates timer
        # cost.  Instead a pending timer that fires no later than the new
        # deadline is left alone and re-armed on expiry; it is replaced
        # only when the deadline moved *earlier* (backoff reset).
        if self._rto_timer is not None:
            if self._rto_fire_at <= deadline:
                return
            self._rto_timer.cancel()
        self._rto_fire_at = deadline
        self._rto_timer = self.sim.at(deadline, self._rto_expire)

    def _cancel_rto(self) -> None:
        # Lazy: just drop the deadline; an outstanding timer no-ops.
        self._rto_deadline = None

    def _rto_expire(self) -> None:
        self._rto_timer = None
        deadline = self._rto_deadline
        if deadline is None:
            return  # cancelled since it was armed
        if self.sim.now < deadline:
            # The deadline was pushed out by ACKs after this timer was
            # scheduled; chase it.
            self._rto_fire_at = deadline
            self._rto_timer = self.sim.at(deadline, self._rto_expire)
            return
        self._rto_deadline = None
        self._on_rto()

    def _on_rto(self) -> None:
        now = self.sim.now
        if self.state is TcpState.SYN_SENT:
            self.stats.rto_events += 1
            self._rto_backoff = min(self._rto_backoff * 2, 64)
            self._send_ctrl(F_SYN, seq=self.iss)
            self._arm_rto()
            return
        if self.snd_una >= self.snd_nxt:
            return  # nothing outstanding
        self.stats.rto_events += 1
        self.cc.on_rto(self.flight_bytes, now)
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._in_recovery = False
        self._recovery_inflate = 0
        self._dupacks = 0
        self._rtt_sample_end = None
        # Keep the SACK scoreboard (Linux behaviour): the go-back-N rewind
        # below then skips ranges the receiver already holds, instead of
        # blindly resending the whole window.
        self._rtx_next = self.snd_una
        # Go-back-N: rewind and retransmit the first unacked segment.
        if self._fin_seq is not None and self.snd_una >= self._fin_seq:
            self._send_ctrl(F_FIN | F_ACK, seq=self._fin_seq, ack=self.rcv_nxt)
        else:
            self.snd_nxt = max(self.snd_una, self._data_start)
            if self._fin_seq is not None:
                self._fin_seq = None
                self.state = TcpState.ESTABLISHED
            length = min(self.mss, self.data_end - self.snd_nxt)
            if length > 0:
                self._send_segment(self.snd_nxt, length, retransmit=True)
                self.snd_nxt += length
            self._maybe_send_fin()
        self._arm_rto()

    # ----------------------------------------------------------- packet input

    def deliver(self, pkt: Packet) -> None:
        """Entry point from the host stack demux.  An ESTABLISHED
        connection (nearly every packet) goes straight to the segment."""
        if self.state is not TcpState.ESTABLISHED and not self._handshake(pkt):
            return
        flags = pkt.flags
        if flags & F_ACK:
            self._process_ack(pkt)
        if pkt.payload_len > 0:
            self._process_data(pkt)
        if flags & F_FIN:
            self._process_fin(pkt)

    # -- handshake -------------------------------------------------------------

    def _handshake(self, pkt: Packet) -> bool:
        """Any state but ESTABLISHED: open or refuse.  Returns whether
        ``pkt`` goes on to ACK, data and FIN processing."""
        flags = pkt.flags
        if self.state is TcpState.CLOSED and self.is_server and flags & F_SYN:
            self._handle_syn(pkt)
            return False
        if self.state is TcpState.SYN_SENT:
            if flags & F_SYN and flags & F_ACK and pkt.ack == self.iss + 1:
                self._handle_synack(pkt)
            return False
        if self.state is TcpState.SYN_RCVD:
            if flags & F_SYN and not flags & F_ACK:
                # Duplicate SYN (our SYN-ACK was lost): resend it.
                self._send_ctrl(F_SYN | F_ACK, seq=self.iss, ack=self.rcv_nxt)
                return False
            if flags & F_ACK and pkt.ack == self.iss + 1:
                self.state = TcpState.ESTABLISHED
                self.stats.established_ns = self.sim.now
                self.snd_una = self.iss + 1
                self.snd_nxt = self.iss + 1
                self.peer_rwnd = pkt.window
                for cb in self.on_established:
                    cb(self)
            # fall through: the handshake ACK may carry data in theory; ours
            # never does.
            if pkt.payload_len == 0 and not flags & F_FIN:
                return False
        return self.state not in (TcpState.CLOSED, TcpState.DONE)

    def _handle_syn(self, pkt: Packet) -> None:
        self.state = TcpState.SYN_RCVD
        self.stats.start_ns = self.sim.now
        self.rcv_nxt = pkt.seq + 1
        self.peer_rwnd = pkt.window
        synack = F_SYN | F_ACK
        if self.ecn_enabled and (pkt.flags & F_ECE) and (pkt.flags & F_CWR):
            self._ecn_on = True
            synack |= F_ECE
        self._send_ctrl(synack, seq=self.iss, ack=self.rcv_nxt)

    def _handle_synack(self, pkt: Packet) -> None:
        self.state = TcpState.ESTABLISHED
        self.stats.established_ns = self.sim.now
        if self.ecn_enabled and pkt.flags & F_ECE:
            self._ecn_on = True
        self.rcv_nxt = pkt.seq + 1
        self.snd_una = self.iss + 1
        self.snd_nxt = self.iss + 1
        self._data_start = self.iss + 1
        self.peer_rwnd = pkt.window
        self._rto_backoff = 1
        self._cancel_rto()
        self._send_ctrl(F_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        for cb in self.on_established:
            cb(self)
        self._maybe_send()

    # -- sender-side ACK processing ---------------------------------------------

    def _process_ack(self, pkt: Packet) -> None:
        una = self.snd_una
        ack = _unwrap(pkt.ack, una)
        self.peer_rwnd = pkt.window
        if pkt.sack and self.sack_enabled:
            self._merge_sack(pkt.sack)
        now = self.sim.now
        if self._ecn_on and pkt.flags & F_ECE and una > self._ecn_react_seq:
            # RFC 3168: one multiplicative decrease per window of data.
            self.cc.on_loss_event(self.snd_nxt - una, now)
            self._ecn_react_seq = self.snd_nxt
            self._send_cwr = True
            self.stats.ecn_reactions += 1

        if ack > una:
            acked = ack - una
            self.snd_una = ack
            stats = self.stats
            # App-stream bytes acknowledged (excludes the SYN/FIN sequence
            # numbers): cumulative, so compute absolutely.
            data_end = self._data_start + self._app_total
            acked_end = (ack if ack < data_end else data_end) - self._data_start
            stats.bytes_acked = acked_end if acked_end > 0 else 0
            self._rto_backoff = 1
            self._dupacks = 0
            if self._sacked:
                self._prune_sacked()

            samples = stats.rtt_samples
            sample_end = self._rtt_sample_end
            if sample_end is not None and ack >= sample_end:
                rtt = now - self._rtt_sample_time
                self._update_rto(rtt)
                samples.append((now, rtt))
                self._rtt_sample_end = None

            if self._in_recovery:
                if ack >= self._recover:
                    self._in_recovery = False
                    self._recovery_inflate = 0
                    self._rtx_next = self.snd_una
                elif self.sack_enabled:
                    # Partial ACK: continue filling scoreboard holes,
                    # one retransmission per ACK (ack clocking).
                    if not self._sack_retransmit():
                        self._retransmit_front()
                else:
                    # NewReno partial ACK: the next hole is lost too.
                    self._retransmit_front()
                    self._recovery_inflate = max(0, self._recovery_inflate - acked) + self.mss
            else:
                # The freshest RTT sample (this ACK's, if it took one).
                self.cc.on_ack(acked, samples[-1][1] if samples else 0,
                               now, self.snd_nxt - ack)

            if ack >= self.snd_nxt:
                self._cancel_rto()
                if self._fin_seq is not None and ack > self._fin_seq:
                    self._finish()
                    return
            else:
                self._arm_rto()
            self._maybe_send()
        elif (
            ack == una
            and pkt.payload_len == 0
            and self.snd_nxt > una
            and not pkt.flags & (F_SYN | F_FIN)
        ):
            self._dupacks += 1
            if self._dupacks == self.DUPACK_THRESHOLD and not self._in_recovery:
                self._enter_recovery()
            elif self._in_recovery:
                if self.sack_enabled:
                    self._sack_retransmit()
                else:
                    self._recovery_inflate += self.mss
                self._maybe_send()

    def _unwrap_ack(self, wire_ack: int) -> int:
        """Map the 32-bit wire ACK back into our unbounded sequence space."""
        return _unwrap(wire_ack, self.snd_una)

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recover = self.snd_nxt
        self.stats.fast_retransmits += 1
        self.cc.on_loss_event(self.flight_bytes, self.sim.now)
        if self.sack_enabled:
            self._recovery_inflate = 0
            self._rtx_next = self.snd_una
            if not self._sack_retransmit():
                self._retransmit_front()
        else:
            self._recovery_inflate = self.DUPACK_THRESHOLD * self.mss
            self._retransmit_front()
        self._maybe_send()

    # -- SACK scoreboard ---------------------------------------------------------

    def _merge_sack(self, blocks: tuple) -> None:
        for ws, we in blocks:
            start = self._unwrap_ack(ws)
            end = self._unwrap_ack(we)
            if end <= start or end <= self.snd_una:
                continue
            self._sacked = _insert_range(self._sacked, max(start, self.snd_una), end)

    def _prune_sacked(self) -> None:
        una = self.snd_una
        pruned = []
        for s, e in self._sacked:
            if e <= una:
                continue
            pruned.append((max(s, una), e))
        self._sacked = pruned

    def _sack_retransmit(self) -> bool:
        """Retransmit the next scoreboard hole (at most one segment).

        Returns True if a retransmission was sent.  ``_rtx_next`` ensures
        each hole is retransmitted once per recovery episode.
        """
        if not self._sacked:
            return False
        max_sacked = self._sacked[-1][1]
        p = max(self._rtx_next, self.snd_una)
        while p < max_sacked:
            gap_end = max_sacked
            covered = False
            for s, e in self._sacked:
                if s <= p < e:
                    p = e
                    covered = True
                    break
                if s > p:
                    gap_end = s
                    break
            if covered:
                continue
            length = min(self.mss, gap_end - p, self.data_end - p)
            if length <= 0:
                return False
            self._send_segment(p, length, retransmit=True)
            self._rtx_next = p + length
            return True
        return False

    def _retransmit_front(self) -> None:
        if self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send_ctrl(F_FIN | F_ACK, seq=self._fin_seq, ack=self.rcv_nxt)
            return
        length = min(self.mss, self.snd_nxt - self.snd_una, self.data_end - self.snd_una)
        if length > 0:
            self._send_segment(self.snd_una, length, retransmit=True)

    def _update_rto(self, rtt_ns: int) -> None:
        if self._srtt is None:
            self._srtt = float(rtt_ns)
            self._rttvar = rtt_ns / 2.0
        else:
            err = rtt_ns - self._srtt
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(err)
            self._srtt += 0.125 * err
        rto = self._srtt + max(4.0 * self._rttvar, 1e6)
        self._rto_ns = int(min(max(rto, self.MIN_RTO_NS), self.MAX_RTO_NS))

    # -- receiver side -------------------------------------------------------------

    def _process_data(self, pkt: Packet) -> None:
        if self._ecn_on or self.ecn_enabled:
            if pkt.ecn == Packet.ECN_CE:
                self._ecn_echo = True
                self.stats.ce_received += 1
            if pkt.flags & F_CWR:
                self._ecn_echo = False
        rcv_nxt = self.rcv_nxt
        seq = _unwrap(pkt.seq, rcv_nxt)
        end = seq + pkt.payload_len
        in_order = False
        before = self.bytes_received
        if end <= rcv_nxt:
            pass  # fully duplicate segment
        elif seq <= rcv_nxt:
            self.rcv_nxt = end
            self.bytes_received = before + end - rcv_nxt
            if self._ooo:
                self._drain_ooo()
            in_order = True
        else:
            self._ooo = _insert_range(self._ooo, seq, end)
        # What the application can now read: newly delivered in-order
        # bytes (duplicates and still-out-of-order data contribute 0).
        delivered = self.bytes_received - before
        if self.delayed_ack and in_order and not self._ooo:
            self._delack_pending += 1
            if self._delack_pending >= 2:
                self._send_ack()
            elif self._delack_timer is None:
                self._delack_timer = self.sim.after(
                    self.DELACK_TIMEOUT_NS, self._delack_fire
                )
        else:
            self._send_ack()
        if delivered:
            for cb in self.on_receive:
                cb(self, delivered)

    def _delack_fire(self) -> None:
        self._delack_timer = None
        if self._delack_pending:
            self._send_ack()

    def _drain_ooo(self) -> None:
        """Deliver the out-of-order ranges the in-order edge has reached."""
        ooo = self._ooo
        while ooo and ooo[0][0] <= self.rcv_nxt:
            _s, e = ooo.pop(0)
            if e > self.rcv_nxt:
                self.bytes_received += e - self.rcv_nxt
                self.rcv_nxt = e

    def _send_ack(self) -> None:
        self._ip_id = ip_id = (self._ip_id + 1) & 0xFFFF
        rcv_buf = self.rcv_buf_bytes
        pkt = Packet.tcp_fast(
            self.host.ip, self.remote_ip, self.local_port, self.remote_port,
            self.snd_nxt, self.rcv_nxt, F_ACK | F_ECE if self._ecn_echo else F_ACK,
            rcv_buf if rcv_buf <= 0xFFFFFFFF else 0xFFFFFFFF,
            0, ip_id, self.sim.now)
        if self._ooo and self.sack_enabled:
            # Report the lowest holes first: those are the segments the
            # sender must repair to advance the cumulative ACK.
            pkt.sack = sack = tuple(
                (s & 0xFFFFFFFF, e & 0xFFFFFFFF) for s, e in self._ooo[:3]
            )
            needed = 2 + 8 * len(sack)
            pkt.tcp_options_len = -(-needed // 4) * 4
        self._delack_pending = 0
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self.host.send(pkt)

    def _process_fin(self, pkt: Packet) -> None:
        seq = _unwrap(pkt.seq, self.rcv_nxt)
        fin_seq = seq + pkt.payload_len
        if fin_seq == self.rcv_nxt:
            self.rcv_nxt += 1
            self._send_ack()
            if self.state is TcpState.FIN_SENT:
                self._finish()
            else:
                self.state = TcpState.CLOSE_WAIT
                # Passive close: acknowledge and close our (dataless) side.
                self._send_ctrl(F_FIN | F_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
                self.snd_nxt += 1
                self._finish()
        else:
            self._send_ack()

    def _finish(self) -> None:
        if self.state is TcpState.DONE:
            return
        self.state = TcpState.DONE
        self.stats.end_ns = self.sim.now
        self._cancel_rto()
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self.stack._forget(self)
        for cb in self.on_close:
            cb(self)


class TcpHostStack:
    """Per-host TCP demux: connections, listeners, ephemeral ports."""

    EPHEMERAL_BASE = 49152

    def __init__(self, sim: Simulator, host: Host, default_mss: int = 8948) -> None:
        self.sim = sim
        self.host = host
        self.default_mss = default_mss
        self._conns: Dict[Tuple[int, int, int], TcpConnection] = {}
        self._listeners: Dict[int, dict] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._iss_counter = 0
        host.set_stack(self)

    # -- host-facing -------------------------------------------------------------

    def deliver(self, pkt: Packet) -> None:
        if pkt.proto != PROTO_TCP:
            return
        key = (pkt.dst_port, pkt.src_ip, pkt.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            conn.deliver(pkt)
            return
        if pkt.flags & F_SYN and not pkt.flags & F_ACK:
            params = self._listeners.get(pkt.dst_port)
            if params is not None:
                conn = self._accept(pkt, params)
                conn.deliver(pkt)

    # -- application-facing ---------------------------------------------------------

    def listen(
        self,
        port: int,
        rcv_buf_bytes: int = 4 * 1024 * 1024,
        mss: Optional[int] = None,
        on_accept: Optional[Callable[[TcpConnection], None]] = None,
        delayed_ack: bool = False,
        ecn_enabled: bool = False,
    ) -> None:
        """Accept connections on ``port``.  ``rcv_buf_bytes`` is the window
        the server advertises — the receiver-limited knob of Fig. 12.
        ``delayed_ack`` enables RFC 1122 delayed ACKs on accepted
        connections (halves the ACK stream; an eACK-algorithm stressor)."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = {
            "rcv_buf": rcv_buf_bytes,
            "mss": mss or self.default_mss,
            "on_accept": on_accept,
            "delayed_ack": delayed_ack,
            "ecn_enabled": ecn_enabled,
        }

    def open_connection(
        self,
        remote_ip: int,
        remote_port: int,
        mss: Optional[int] = None,
        cc: str | CongestionControl = "cubic",
        pacing_bps: Optional[int] = None,
        rcv_buf_bytes: int = 4 * 1024 * 1024,
        local_port: Optional[int] = None,
        sack_enabled: bool = True,
        ecn_enabled: bool = False,
    ) -> TcpConnection:
        """Create a client connection object (call ``connect()`` to start)."""
        mss = mss or self.default_mss
        if isinstance(cc, str):
            cc = make_cc(cc, mss)
        port = local_port if local_port is not None else self._alloc_port()
        self._iss_counter += 1
        conn = TcpConnection(
            self,
            local_port=port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            mss=mss,
            cc=cc,
            rcv_buf_bytes=rcv_buf_bytes,
            pacing_bps=pacing_bps,
            iss=100_000 * self._iss_counter,
            sack_enabled=sack_enabled,
            ecn_enabled=ecn_enabled,
        )
        self._register(conn)
        return conn

    # -- internals ---------------------------------------------------------------

    def _alloc_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = self.EPHEMERAL_BASE
        return port

    def _accept(self, syn: Packet, params: dict) -> TcpConnection:
        self._iss_counter += 1
        conn = TcpConnection(
            self,
            local_port=syn.dst_port,
            remote_ip=syn.src_ip,
            remote_port=syn.src_port,
            mss=params["mss"],
            cc=make_cc("reno", params["mss"]),  # server sends no data
            rcv_buf_bytes=params["rcv_buf"],
            iss=200_000 * self._iss_counter,
            is_server=True,
            delayed_ack=params["delayed_ack"],
            ecn_enabled=params["ecn_enabled"],
        )
        self._register(conn)
        if params["on_accept"] is not None:
            params["on_accept"](conn)
        return conn

    def _register(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_ip, conn.remote_port)
        if key in self._conns:
            raise RuntimeError(f"connection collision on {key}")
        self._conns[key] = conn

    def _forget(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_ip, conn.remote_port)
        self._conns.pop(key, None)
