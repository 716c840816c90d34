"""Alert threshold tracking (§3.2).

"If one of the alerting thresholds is exceeded, the control plane
notifies the administrator and increases the collection rate to a value
defined by the administrator."

:class:`AlertManager` keeps the active-alert set keyed by
(metric, flow).  A raise returns an :class:`~repro.core.reports.Alert`,
a return below threshold the matching cleared event (the control plane
ships what :meth:`check` returns), and :meth:`metric_boosted` tells the
extraction loop whether a metric class should run at its boosted
rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry import hooks
from repro.core.config import MetricKind, MonitorConfig
from repro.core.reports import Alert


class AlertManager:
    def __init__(self, config: MonitorConfig) -> None:
        self.config = config
        self._active: Dict[Tuple[MetricKind, Optional[int]], Alert] = {}
        self.history: List[Alert] = []
        self._trace = hooks.tracer

    def check(
        self,
        kind: MetricKind,
        flow_id: Optional[int],
        value: float,
        now_ns: int,
    ) -> Optional[Alert]:
        """Evaluate one observation; returns the Alert if one was raised
        or cleared at this instant, else None."""
        mc = self.config.metric(kind)
        if not mc.alert_enabled or mc.alert_threshold is None:
            return None
        key = (kind, flow_id)
        active = self._active.get(key)
        if value > mc.alert_threshold:
            if active is not None:
                return None  # still alerting; no duplicate notification
            alert = Alert(
                time_ns=now_ns,
                metric=kind.value,
                flow_id=flow_id,
                value=value,
                threshold=mc.alert_threshold,
            )
            self._active[key] = alert
            self._emit(alert)
            return alert
        if active is not None:
            del self._active[key]
            cleared = Alert(
                time_ns=now_ns,
                metric=kind.value,
                flow_id=flow_id,
                value=value,
                threshold=mc.alert_threshold,
                cleared=True,
            )
            self._emit(cleared)
            return cleared
        return None

    def _emit(self, alert: Alert) -> None:
        self.history.append(alert)
        if self._trace is not None and not alert.cleared:
            self._trace.fire("alert", alert.time_ns, metric=alert.metric,
                             flow_id=alert.flow_id, value=alert.value,
                             threshold=alert.threshold)

    def metric_boosted(self, kind: MetricKind) -> bool:
        """True while any flow holds an active alert for this metric —
        the extraction loop then uses the boosted interval."""
        return any(k is kind for k, _ in self._active)

    def drop_flow(self, flow_id: int) -> None:
        """Forget alerts of an evicted flow."""
        for key in [k for k in self._active if k[1] == flow_id]:
            del self._active[key]

    @property
    def active_alerts(self) -> List[Alert]:
        return list(self._active.values())
