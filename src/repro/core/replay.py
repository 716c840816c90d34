"""Offline replay: run the P4 monitor + control plane over a recorded
capture instead of a live TAP.

This is the software-collector deployment mode (the repro calibration
notes call it the "P4Runtime/scapy collector" pattern): capture the
ingress/egress mirror streams to pcap, then analyse them offline with
exactly the same pipeline, producing the same per-flow reports, alerts,
microburst events and termination reports as the live system.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.config import MonitorConfig
from repro.core.control_plane import MonitorControlPlane
from repro.core.monitor import P4Monitor
from repro.netsim.engine import Simulator
from repro.netsim.pcap import read_pcap
from repro.netsim.tap import MirrorCopy, TapDirection
from repro.perfsonar.archiver import Archiver


class OfflineAnalyzer:
    """Feeds recorded mirror copies through a fresh monitor assembly.

    The copies' own timestamps drive a virtual clock, so every
    control-plane interval, alert boost and report timestamp behaves
    exactly as it would have live.  The reports go into the analyzer's
    own archive, ``archiver``, where its results are read.
    """

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.sim = Simulator()
        self.monitor = P4Monitor(config, sim=self.sim)
        self.archiver = Archiver()
        self.control_plane = MonitorControlPlane(
            self.sim, self.monitor, report_sink=self.archiver.sink
        )

    def replay(self, copies: Iterable[MirrorCopy],
               trailer_ns: int = 1_000_000_000) -> "OfflineAnalyzer":
        """Replay recorded :class:`MirrorCopy` records in timestamp order
        (a stable sort, so same-timestamp copies keep their recorded
        order); the clock then runs ``trailer_ns`` past the last record
        so final extraction intervals fire.

        Copies go to the monitor's bound intake, as a live TAP's would,
        and the clock moves only when a timer is due: every extraction
        tick flushes the monitor first, so a tick at ``T`` sees exactly
        the copies stamped ``<= T`` that preceded it, and between ticks
        the only flush boundary is the buffer cap."""
        ordered = sorted(copies, key=attrgetter("timestamp_ns"))
        if not ordered:
            return self
        sim = self.sim
        if ordered[0].timestamp_ns < sim.now:
            raise ValueError("capture records must not move backwards")
        receive = self.monitor.receive_copy
        self.control_plane.start()
        for copy in ordered:
            ts_ns = copy.timestamp_ns
            due = sim.peek_time()
            if due is not None and due <= ts_ns:
                sim.run_until(ts_ns)
            receive(copy)
        sim.run_until(ordered[-1].timestamp_ns + trailer_ns)
        self.control_plane.stop()
        return self

    def replay_pcap_pair(
        self,
        ingress_path: Union[str, Path],
        egress_path: Union[str, Path],
        trailer_ns: int = 1_000_000_000,
    ) -> "OfflineAnalyzer":
        """Replay the two TAP captures (ingress-side and egress-side).
        A pcap pair is one tapped egress port: every egress copy is
        port 0."""
        copies = [
            MirrorCopy(pkt, TapDirection.INGRESS, ts)
            for ts, pkt in read_pcap(ingress_path)
        ] + [
            MirrorCopy(pkt, TapDirection.EGRESS, ts)
            for ts, pkt in read_pcap(egress_path)
        ]
        return self.replay(copies, trailer_ns=trailer_ns)

    # -- result access -----------------------------------------------------------

    @property
    def flows(self):
        return self.control_plane.flows

    @property
    def terminations(self):
        return self.control_plane.terminations

    def summary(self) -> str:
        cp = self.control_plane
        lines = [
            f"offline analysis over {self.sim.now / 1e9:.2f}s of capture:",
            f"  flows tracked:        {len(cp.flows)}",
            f"  microbursts:          {len(cp.microbursts)}",
            f"  termination reports:  {len(cp.terminations)}",
            f"  alerts:               {len(cp.alerts.history)}",
        ]
        for report in cp.terminations:
            lines.append(
                f"    flow {report.flow_id:#x}: {report.total_bytes / 1e6:.1f} MB, "
                f"avg {report.avg_throughput_bps / 1e6:.1f} Mbps, "
                f"{report.retransmissions} retx ({report.retransmission_pct:.2f}%)"
            )
        return "\n".join(lines)
