"""Grafana dashboard generation (the paper visualises everything through
Grafana, §5.1).

:func:`build_dashboard` produces a Grafana-style dashboard JSON dict from
an archive: one panel per metric, one target (series) per flow, grouped
by destination IP exactly as the paper's dashboards group them.  The dict
follows Grafana's schema closely enough to be imported after pointing the
datasource at a real OpenSearch; :func:`panel_series` extracts the
concrete data for in-terminal rendering via :mod:`repro.viz`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.perfsonar.archiver import Archiver

PANEL_SPECS = [
    ("Per-flow throughput", "p4_throughput", "bps"),
    ("Per-flow RTT", "p4_rtt", "ms"),
    ("Queue occupancy", "p4_queue_occupancy", "percent"),
    ("Per-flow packet loss", "p4_packet_loss", "percent"),
]

AGG_PANEL_SPECS = [
    ("Link utilization", "p4_aggregate", "link_utilization"),
    ("Jain's fairness index", "p4_aggregate", "jain_fairness"),
    ("Active flows", "p4_aggregate", "active_flows"),
]

# Distribution reports are not scalar series: one document carries a
# whole histogram plus derived percentiles.  Dashboards render them as
# percentile *bands* (one series per percentile field, stacked p50 under
# p90 under p99), never as a single "value" series.
PERCENTILE_FIELDS = ("p50_ms", "p90_ms", "p99_ms")


def _group_key(doc: dict, group_by: str) -> Optional[str]:
    return doc.get(group_by)


def build_dashboard(
    archiver: Archiver,
    title: str = "P4-perfSONAR",
    group_by: str = "destination_ip",
) -> dict:
    """A Grafana-importable dashboard dict over the archived reports."""
    panels: List[dict] = []
    panel_id = 1
    for panel_title, kind, unit in PANEL_SPECS:
        groups = sorted({
            g for d in archiver.documents(kind)
            if (g := _group_key(d, group_by)) is not None
        })
        panels.append({
            "id": panel_id,
            "title": panel_title,
            "type": "timeseries",
            "fieldConfig": {"defaults": {"unit": unit}},
            "targets": [
                {
                    "refId": chr(ord("A") + i % 26),
                    "query": f"type:{kind} AND {group_by}:{group}",
                    "metrics": [{"type": "avg", "field": "value"}],
                    "alias": str(group),
                }
                for i, group in enumerate(groups)
            ],
        })
        panel_id += 1
    for panel_title, kind, field in AGG_PANEL_SPECS:
        panels.append({
            "id": panel_id,
            "title": panel_title,
            "type": "timeseries",
            "fieldConfig": {"defaults": {"unit": "none"}},
            "targets": [{
                "refId": "A",
                "query": f"type:{kind}",
                "metrics": [{"type": "avg", "field": field}],
                "alias": panel_title,
            }],
        })
        panel_id += 1
    hist_kind = Archiver.HISTOGRAM_KIND
    if archiver.documents(hist_kind, metric="rtt", scope="flow"):
        flows = sorted({
            d["flow_id"] for d in archiver.documents(hist_kind, scope="flow")
            if d.get("flow_id") is not None
        })
        panels.append({
            "id": panel_id,
            "title": "RTT distribution (percentile bands)",
            "type": "timeseries",
            "fieldConfig": {"defaults": {"unit": "ms",
                                         "custom": {"fillOpacity": 20}}},
            "targets": [
                {
                    "refId": chr(ord("A") + i % 26),
                    "query": f"type:{hist_kind} AND scope:flow "
                             f"AND flow_id:{fid}",
                    "metrics": [{"type": "avg", "field": field}],
                    "alias": f"{fid} {field[:-3]}",
                }
                for i, (fid, field) in enumerate(
                    (fid, field) for fid in flows
                    for field in PERCENTILE_FIELDS)
            ],
        })
        panel_id += 1
    forensics_kind = Archiver.FORENSICS_KIND
    culprit_flows = archiver.culprit_flows()
    if culprit_flows:
        panels.append({
            "id": panel_id,
            "title": "Queue forensics: culprit attribution",
            "type": "barchart",
            "fieldConfig": {"defaults": {"unit": "bytes"}},
            "targets": [
                {
                    "refId": chr(ord("A") + i % 26),
                    "query": f"type:{forensics_kind} "
                             f"AND culprits.flow_id:{fid}",
                    "metrics": [{"type": "sum", "field": "culprits.bytes"}],
                    "alias": f"{fid:x}",
                }
                for i, fid in enumerate(culprit_flows)
            ],
        })
        panel_id += 1
    return {
        "title": title,
        "schemaVersion": 39,
        "tags": ["p4-perfsonar", "science-dmz"],
        "time": {"from": "now-1h", "to": "now"},
        "refresh": "1s",
        "panels": panels,
    }


def panel_series(
    archiver: Archiver,
    kind: str,
    group_by: str = "destination_ip",
    value_field: str = "value",
) -> Dict[str, List[tuple]]:
    """The concrete (t, value) series behind one panel, one entry per
    group — feedable straight into :func:`repro.viz.timeseries_panel`."""
    series: Dict[str, List[tuple]] = {}
    for doc in archiver.documents(kind):
        group = _group_key(doc, group_by)
        if group is None or value_field not in doc:
            continue
        series.setdefault(str(group), []).append(
            (doc.get("@timestamp", 0.0), doc[value_field])
        )
    for pts in series.values():
        pts.sort()
    return series
