"""mmWave link with LOS blockage and an RSSI observable.

The link is a normal point-to-point connection whose port rates collapse
to ``blocked_rate_fraction`` of nominal while a blockage is active (the
beam energy that still arrives via reflections), and whose RSSI drops by
``blockage_attenuation_db``.  RSSI readings carry Gaussian measurement
noise, which is exactly what forces RSSI-based detectors to average
(and therefore react late) — the Fig. 14 comparison hinges on this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.host import Node
from repro.netsim.link import Link, Port


@dataclass
class BlockageSchedule:
    """Planned LOS blockages: (start_ns, duration_ns) pairs."""

    events: List[Tuple[int, int]]

    def validate(self) -> None:
        last_end = -1
        for start, duration in self.events:
            if start < 0 or duration <= 0:
                raise ValueError("blockage events need start >= 0 and duration > 0")
            if start < last_end:
                raise ValueError("blockage events must not overlap")
            last_end = start + duration


class MmWaveLink:
    """A blockage-capable link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        node_a: Node,
        node_b: Node,
        rate_bps: int,
        delay_ns: int = 5_000,           # short reach, ~1 m + processing
        queue_bytes: int = 2 * 1024 * 1024,
        blocked_rate_fraction: float = 0.01,
        baseline_rssi_dbm: float = -52.0,
        blockage_attenuation_db: float = 25.0,
        rssi_noise_db: float = 2.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < blocked_rate_fraction <= 1.0:
            raise ValueError("blocked_rate_fraction must be in (0, 1]")
        self.sim = sim
        self.nominal_rate_bps = rate_bps
        self.blocked_rate_bps = max(1, round(rate_bps * blocked_rate_fraction))
        self.baseline_rssi_dbm = baseline_rssi_dbm
        self.blockage_attenuation_db = blockage_attenuation_db
        self.rssi_noise_db = rssi_noise_db
        self._rng = random.Random(seed)

        self.port_a = node_a.new_port(rate_bps, queue_bytes)
        self.port_b = node_b.new_port(rate_bps, queue_bytes)
        self.link = Link(sim, self.port_a, self.port_b, delay_ns, name="mmwave")

        self.blocked = False
        self.blockage_count = 0

    # -- blockage dynamics ---------------------------------------------------

    def schedule(self, schedule: BlockageSchedule) -> None:
        schedule.validate()
        for start_ns, duration_ns in schedule.events:
            self.sim.at(start_ns, self._block)
            self.sim.at(start_ns + duration_ns, self._unblock)

    def _block(self) -> None:
        self.blocked = True
        self.blockage_count += 1
        self._apply_rate(self.blocked_rate_bps)

    def _unblock(self) -> None:
        self.blocked = False
        self._apply_rate(self.nominal_rate_bps)

    def _apply_rate(self, rate_bps: int) -> None:
        self.port_a.rate_bps = rate_bps
        self.port_b.rate_bps = rate_bps

    # -- handover hook ---------------------------------------------------------

    def steer_to_backup(self, backup_rate_fraction: float = 0.9) -> None:
        """Beam handover: steer to a reflected/backup path.  Restores most
        of the nominal rate even while the LOS stays blocked."""
        if not self.blocked:
            return
        self._apply_rate(max(1, round(self.nominal_rate_bps * backup_rate_fraction)))

    # -- RSSI observable ----------------------------------------------------------

    def rssi_dbm(self) -> float:
        """One noisy RSSI reading at the current instant.

        During a blockage the *LOS* signal stays attenuated regardless of
        any packet-path handover — RSSI tracks the radio, not the data."""
        base = self.baseline_rssi_dbm
        if self.blocked:
            base -= self.blockage_attenuation_db
        return base + self._rng.gauss(0.0, self.rssi_noise_db)
