"""Passive optical TAPs (Fig. 3).

The paper uses a pair of fibre TAPs that duplicate the traffic entering
and exiting the core switch and feed the copies to the P4 programmable
switch.  :class:`OpticalTap` reproduces exactly that: it installs an
ingress mirror on the switch and an egress mirror on each (or a selected)
port, delivering :class:`MirrorCopy` records to a sink after a fixed
optical path delay.  The primary path is never perturbed — the defining
property of passive measurement (§3.3.1).
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Iterable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.link import Port
from repro.netsim.packet import Packet
from repro.netsim.switch import LegacySwitch


class TapDirection(Enum):
    """Which side of the core switch the copy was taken from."""

    INGRESS = "ingress"  # packet arriving at the core switch
    EGRESS = "egress"    # packet departing the core switch


class MirrorCopy:
    """A duplicated packet plus the TAP-point timestamp.

    ``timestamp_ns`` is the time the original packet crossed the TAP, not
    the time the copy reaches the monitor — a real Tofino stamps copies on
    its own ingress MAC, and the constant fibre delay cancels in every
    difference the monitor computes (queue delay, RTT, IAT).

    ``egress_port_id`` identifies *which* tapped queue an egress copy
    left through (0-based enumeration of the TAP's egress ports), letting
    the monitor keep per-queue microburst state.  0 for ingress copies.

    ``ecn`` is the packet's ECN codepoint at the TAP instant: downstream
    queues CE-mark the shared ``Packet`` after the mirror point, and a
    copy on a fibre delay reaches the monitor after they may have.

    ``lanes`` packs the two, ``egress_port_id << 2 | ecn``: one slot (a
    fifth would move every copy from pymalloc's 64-byte size class to
    its 80-byte one), and the intake record's field of the same name.
    """

    __slots__ = ("pkt", "direction", "timestamp_ns", "lanes")

    def __init__(self, pkt: Packet, direction: TapDirection, timestamp_ns: int,
                 egress_port_id: int = 0) -> None:
        self.pkt = pkt
        self.direction = direction
        self.timestamp_ns = timestamp_ns
        self.lanes = egress_port_id << 2 | pkt.ecn

    @property
    def egress_port_id(self) -> int:
        return self.lanes >> 2

    @property
    def ecn(self) -> int:
        return self.lanes & 3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MirrorCopy({self.direction.value}, t={self.timestamp_ns}, {self.pkt!r})"


MirrorSink = Callable[[MirrorCopy], None]


class OpticalTap:
    """A pair of passive TAPs around one core switch.

    Parameters
    ----------
    sim, switch:
        The simulator and the tapped legacy switch.
    sink:
        Receiver of the mirrored copies (normally
        :meth:`repro.core.monitor.P4Monitor.receive_copy`).
    egress_ports:
        Restrict the egress TAP to specific ports (default: all ports, the
        paper's 'traffic entering and exiting the core switch').
    fiber_delay_ns:
        Optical path from TAP to monitor.  Copies are delivered through the
        event queue after this delay but carry the TAP-point timestamp.
    copy_loss_rate:
        Failure injection: fraction of mirror copies lost on the monitor
        path (dirty optics, an oversubscribed mirror port).  The primary
        path is never affected; the monitor must degrade gracefully.
    """

    def __init__(
        self,
        sim: Simulator,
        switch: LegacySwitch,
        sink: MirrorSink,
        egress_ports: Optional[Iterable[Port]] = None,
        fiber_delay_ns: int = 0,
        copy_loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if fiber_delay_ns < 0:
            raise ValueError("fiber delay cannot be negative")
        if not 0.0 <= copy_loss_rate < 1.0:
            raise ValueError("copy loss rate must be in [0, 1)")
        self.sim = sim
        self.switch = switch
        self._sink = sink
        self.fiber_delay_ns = fiber_delay_ns
        self.copy_loss_rate = copy_loss_rate
        self._rng = random.Random(seed)
        self.copies_lost = 0
        self.copies_ingress = 0
        self.copies_egress = 0
        self._trace = sim.trace

        # Fast mirror path: when the sink is a batching P4Monitor and
        # nothing on the TAP needs per-copy work (no loss injection, no
        # fibre delay, no trace), mirror callbacks extend the kernel's
        # intake with the copy's header record directly — no MirrorCopy,
        # no sink call, no per-copy container.  The record is packed at
        # mirror time, before queues CE-mark the shared Packet.  The
        # kernel counts the monitor's copies at flush.
        owner = getattr(sink, "__self__", None)
        self._fast_buf = None
        self._fast_owner = None
        self._fast_limit = 0
        if (copy_loss_rate == 0.0 and fiber_delay_ns == 0
                and self._trace is None and owner is not None):
            buf = getattr(owner, "batch_buffer", None)
            if buf is not None:
                self._fast_buf = buf
                self._fast_owner = owner
                self._fast_limit = owner.kernel.buf_limit
                self._record = owner.kernel.record

        if self._fast_buf is not None:
            switch.ingress_mirrors.append(self._mirror_ingress_fast)
        else:
            switch.ingress_mirrors.append(self._mirror_ingress)
        ports = list(egress_ports) if egress_ports is not None else switch.ports
        self.egress_ports = ports
        for port_id, port in enumerate(ports):
            if port.owner is not switch:
                raise ValueError(f"port {port.name} is not on switch {switch.name}")
            if self._fast_buf is not None:
                cb = self._fast_egress_mirror(port_id)
            else:
                cb = lambda pkt, ts, _pid=port_id: self._mirror_egress(pkt, ts, _pid)
            port.egress_mirrors.append(cb)

    # -- mirror callbacks -----------------------------------------------------

    def _mirror_ingress(self, pkt: Packet, ts_ns: int) -> None:
        self.copies_ingress += 1
        self._ship(MirrorCopy(pkt, TapDirection.INGRESS, ts_ns))

    def _mirror_egress(self, pkt: Packet, ts_ns: int, port_id: int) -> None:
        self.copies_egress += 1
        self._ship(MirrorCopy(pkt, TapDirection.EGRESS, ts_ns,
                              egress_port_id=port_id))

    def _mirror_ingress_fast(self, pkt: Packet, ts_ns: int) -> None:
        self.copies_ingress += 1
        buf = self._fast_buf
        buf += self._record(pkt, 0, ts_ns, pkt.ecn)
        if len(buf) >= self._fast_limit:
            self._fast_owner.kernel.flush()

    def _fast_egress_mirror(self, port_id: int):
        """The fast egress mirror of one port: a closure over the port's
        lane (its id, shifted into ``MirrorCopy.lanes``), so a copy pays
        one Python frame, where a lambda in front of a method (or a
        ``functools.partial``, on CPython 3.11) costs more."""
        lane = port_id << 2

        def mirror(pkt: Packet, ts_ns: int) -> None:
            self.copies_egress += 1
            buf = self._fast_buf
            buf += self._record(pkt, 1, ts_ns, lane | pkt.ecn)
            if len(buf) >= self._fast_limit:
                self._fast_owner.kernel.flush()
        return mirror

    def _ship(self, copy: MirrorCopy) -> None:
        if self.copy_loss_rate > 0.0 and self._rng.random() < self.copy_loss_rate:
            self.copies_lost += 1
            if self._trace is not None and self._trace.wants(copy.pkt):
                self._trace.packet_event(
                    "netsim", "tap-copy-lost", copy.direction.value,
                    copy.pkt, copy.timestamp_ns)
            return
        # The copy shares the original Packet object, so it inherits the
        # trace id; this event marks the fork onto the monitor path.
        if self._trace is not None and self._trace.wants(copy.pkt):
            self._trace.packet_event(
                "netsim", "tap-copy", copy.direction.value,
                copy.pkt, copy.timestamp_ns,
                egress_port_id=copy.egress_port_id)
        if self.fiber_delay_ns == 0:
            self._sink(copy)
        else:
            self.sim.after(self.fiber_delay_ns, self._sink, copy)
