"""Handover reaction: steer the beam to a backup (reflected) path.

A detector calls :meth:`HandoverController.trigger`; after the radio's
beam-switch latency the link is steered to the backup path, restoring
most of the nominal rate even while the LOS remains blocked.  The
controller records the trigger for the Fig. 14 latency comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.netsim.engine import Simulator
from repro.mmwave.channel import MmWaveLink


@dataclass
class HandoverRecord:
    reason: str
    triggered_ns: int
    completed_ns: int


class HandoverController:
    def __init__(
        self,
        sim: Simulator,
        link: MmWaveLink,
        switch_latency_ns: int = 10_000_000,  # ~10 ms beam retraining
        backup_rate_fraction: float = 0.9,
    ) -> None:
        self.sim = sim
        self.link = link
        self.switch_latency_ns = switch_latency_ns
        self.backup_rate_fraction = backup_rate_fraction
        self.records: List[HandoverRecord] = []
        self._in_progress = False

    def trigger(self, reason: str, now_ns: int) -> None:
        if self._in_progress:
            return
        self._in_progress = True
        self.sim.after(self.switch_latency_ns, self._complete, reason, now_ns)

    def _complete(self, reason: str, triggered_ns: int) -> None:
        self.link.steer_to_backup(self.backup_rate_fraction)
        self.records.append(
            HandoverRecord(reason=reason, triggered_ns=triggered_ns,
                           completed_ns=self.sim.now)
        )
        self._in_progress = False
