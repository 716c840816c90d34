"""Alert → forensics → archive linkage (the closed loop).

A seeded microburst scenario with a known aggressor must end with a
``repro-forensics-v1`` document in the archive whose top culprit is the
flow the ground-truth oracle blames; a query over an interval with no
significant window mass must be suppressed — no report, no document.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.forensics import render_culprits
from repro.core.reports import ForensicsReport
from repro.experiments.common import Scenario, ScenarioConfig
from repro.netsim.observer import EventStream, observe_topology
from repro.netsim.packet import PROTO_TCP, int_to_ip
from repro.perfsonar.dashboard import build_dashboard
from repro.p4.time_windows import F_PKTS
from repro.validation.oracle import GroundTruthOracle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def burst_outcome():
    """A paced victim + an unpaced joiner over a BDP/4 buffer, forensics
    on, full perfSONAR stack attached, oracle watching the TAP points."""
    scenario = Scenario(ScenarioConfig(
        rtts_ms=(100.0, 100.0, 100.0),
        buffer_bdp_fraction=0.25,
        monitor_overrides={"forensics_enabled": True},
    ))
    stream = EventStream()
    observe_topology(scenario.topology, stream=stream)
    oracle = GroundTruthOracle(
        stream, rtt_max_age_ns=scenario.monitor.config.rtt_max_age_ns)
    # Victim outlives the culprit so its packets see the drained queue
    # (the falling edge that closes the burst in the detector).
    scenario.add_flow(0, start_s=0.0, duration_s=12.0, rate_mbps=2.0)
    scenario.add_flow(1, start_s=4.0, duration_s=5.0)
    scenario.run(14.0)
    return scenario, oracle


def _endpoints(culprit: dict):
    return frozenset(((culprit["source_ip"], culprit["source_port"]),
                      (culprit["destination_ip"],
                       culprit["destination_port"])))


def _truth_top(oracle, t0_ns, t1_ns, slack_ns):
    totals = {}
    for ft, truth in oracle.flows.items():
        if ft.proto != PROTO_TCP:
            continue
        key = frozenset(((int_to_ip(ft.src_ip), ft.src_port),
                         (int_to_ip(ft.dst_ip), ft.dst_port)))
        nbytes = sum(length for ts, length in truth.arrivals
                     if t0_ns - slack_ns <= ts <= t1_ns + slack_ns)
        totals[key] = totals.get(key, 0) + nbytes
    return max(totals, key=totals.get)


def test_microburst_alert_produces_archived_report(burst_outcome):
    scenario, _ = burst_outcome
    cp = scenario.control_plane
    assert cp.microbursts, "the joiner never triggered the detector"
    assert cp.forensics_reports
    assert all(r.trigger == "microburst" for r in cp.forensics_reports)
    archiver = scenario.perfsonar.archiver
    assert archiver.forensics_count() == len(cp.forensics_reports)
    docs = archiver.forensics_documents(trigger="microburst")
    assert len(docs) == len(cp.forensics_reports)


def test_archived_report_names_oracle_true_culprit(burst_outcome):
    scenario, oracle = burst_outcome
    slack = scenario.monitor.config.max_queue_delay_ns()
    doc = max(scenario.perfsonar.archiver.forensics_documents(),
              key=lambda d: d["@timestamp"])
    top = doc["culprits"][0]
    assert _endpoints(top) == _truth_top(oracle, doc["t0_ns"], doc["t1_ns"],
                                         slack)


def test_archived_document_schema(burst_outcome):
    scenario, _ = burst_outcome
    for doc in scenario.perfsonar.archiver.forensics_documents():
        assert doc["type"] == "repro-forensics-v1"
        assert doc["t0_ns"] < doc["t1_ns"]
        assert doc["total_bytes"] > 0
        assert doc["windows"] >= 1
        assert doc["@timestamp"] > 0
        assert doc["culprits"], "an unsuppressed report must rank someone"
        for culprit in doc["culprits"]:
            assert culprit["flow_id"] >= 0
            assert culprit["bytes"] > 0
            assert 0.0 <= culprit["share"] <= 1.0
            assert 0.0 < culprit["coverage"] <= 1.0


def test_suppressed_query_produces_no_report(burst_outcome):
    """No significant window mass in the interval → no report: the
    negative half of the linkage contract."""
    scenario, _ = burst_outcome
    cp = scenario.control_plane
    fx = cp.forensics
    archived_before = scenario.perfsonar.archiver.forensics_count()
    reports_before = len(cp.forensics_reports)
    suppressed_before = fx.suppressed
    # An interval far beyond anything the run recorded: zero windows.
    empty_ns = scenario.sim.now + 3_600_000_000_000
    fx.on_microburst(SimpleNamespace(
        start_ns=empty_ns, duration_ns=1_000_000, port_id=0))
    fx._run_pending()
    assert fx.suppressed == suppressed_before + 1
    assert len(cp.forensics_reports) == reports_before
    assert scenario.perfsonar.archiver.forensics_count() == archived_before


def test_watch_header_surfaces_top_culprit(burst_outcome):
    scenario, _ = burst_outcome
    line = scenario.control_plane.forensics.watch_line()
    assert line is not None and line.startswith("top culprit:")
    assert "trigger: microburst" in line


def test_render_culprits_table(burst_outcome):
    scenario, _ = burst_outcome
    report = scenario.control_plane.forensics.latest
    table = render_culprits(report)
    assert "trigger microburst" in table
    assert "rank" in table and "share" in table
    # One row per ranked culprit.
    assert len(table.splitlines()) == 3 + len(report.culprits)


def test_dashboard_gets_culprit_panel(burst_outcome):
    scenario, _ = burst_outcome
    archiver = scenario.perfsonar.archiver
    dashboard = build_dashboard(archiver)
    panels = [p for p in dashboard["panels"]
              if p["title"] == "Queue forensics: culprit attribution"]
    assert len(panels) == 1
    assert panels[0]["targets"], "culprits archived but no panel targets"


def test_conservation_held_end_to_end(burst_outcome):
    """Nothing the data plane recorded was lost on the way to the index:
    observed == indexed + residue + evicted at level 0."""
    scenario, _ = burst_outcome
    tw = scenario.monitor.queue.time_windows
    fx = scenario.control_plane.forensics
    indexed = sum(entry[1] for entry in fx.index[0].values())
    residue = int((tw.bank(0) + tw.bank(1))[0, :, F_PKTS].sum())
    assert indexed + residue + tw.evicted_pkts[0] == tw.ops


def test_report_document_round_trip():
    report = ForensicsReport(
        time_ns=5_000_000_000, trigger="query", t0_ns=1, t1_ns=2,
        level=0, window_width_ns=1_000_000, windows=3, total_bytes=4500,
        culprits=[{"flow_id": 7, "bytes": 4500, "packets": 3,
                   "windows": 3, "coverage": 1.0, "share": 1.0,
                   "max_qdepth_ns": 9}],
        victim_flow_id=9, port_id=0)
    doc = report.to_document()
    assert doc["type"] == "repro-forensics-v1"
    assert doc["victim_flow_id"] == 9 and doc["port_id"] == 0
    assert doc["culprits"][0]["flow_id"] == 7
    assert doc["@timestamp"] == pytest.approx(5.0)
