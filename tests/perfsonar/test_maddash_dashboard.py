"""MaDDash grid and Grafana dashboard generation."""

import pytest

from repro.core.reports import Block, document_run
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.dashboard import build_dashboard, panel_series
from repro.perfsonar.maddash import CellStatus, MadDashGrid, Thresholds


@pytest.fixture
def archive():
    arch = Archiver()
    docs = [
        # throughput: healthy and degraded pairs
        ("p4_throughput", "10.0.0.10", "10.1.0.10", 1.0, 90e6),
        ("p4_throughput", "10.0.0.10", "10.1.0.10", 2.0, 95e6),  # latest wins
        ("p4_throughput", "10.0.0.10", "10.2.0.10", 2.0, 30e6),
        ("p4_throughput", "10.0.0.10", "10.3.0.10", 2.0, 5e6),
        # loss
        ("p4_packet_loss", "10.0.0.10", "10.1.0.10", 2.0, 0.1),
        ("p4_packet_loss", "10.0.0.10", "10.2.0.10", 2.0, 1.0),
        ("p4_packet_loss", "10.0.0.10", "10.3.0.10", 2.0, 5.0),
    ]
    arch.sink(Block([document_run({"type": kind, "source_ip": src, "destination_ip": dst,
                                   "@timestamp": ts, "value": value,
                                   "flow_id": hash((src, dst)) & 0xFFFF})
                     for kind, src, dst, ts, value in docs]))
    return arch


def test_throughput_grid_statuses(archive):
    grid = MadDashGrid(archive, Thresholds(throughput_expected_bps=100e6))
    cells = grid.build("p4_throughput")
    assert cells[("10.0.0.10", "10.1.0.10")] is CellStatus.OK       # 95% (latest)
    assert cells[("10.0.0.10", "10.2.0.10")] is CellStatus.DEGRADED  # 30%
    assert cells[("10.0.0.10", "10.3.0.10")] is CellStatus.CRITICAL  # 5%


def test_loss_grid_statuses(archive):
    grid = MadDashGrid(archive)
    cells = grid.build("p4_packet_loss")
    assert cells[("10.0.0.10", "10.1.0.10")] is CellStatus.OK
    assert cells[("10.0.0.10", "10.2.0.10")] is CellStatus.DEGRADED
    assert cells[("10.0.0.10", "10.3.0.10")] is CellStatus.CRITICAL


def test_throughput_ok_when_no_expectation(archive):
    grid = MadDashGrid(archive)  # expected = 0 -> always OK
    cells = grid.build("p4_throughput")
    assert all(s is CellStatus.OK for s in cells.values())


def test_rtt_thresholds():
    grid = MadDashGrid(Archiver(), Thresholds(rtt_degraded_ms=100, rtt_critical_ms=200))
    assert grid.rtt_status(50) is CellStatus.OK
    assert grid.rtt_status(150) is CellStatus.DEGRADED
    assert grid.rtt_status(250) is CellStatus.CRITICAL


def test_render_grid(archive):
    grid = MadDashGrid(archive, Thresholds(throughput_expected_bps=100e6))
    text = grid.render("p4_throughput")
    assert "CRITICAL" in text
    assert "10.3.0.10" in text


def test_render_empty():
    assert MadDashGrid(Archiver()).render() == "(no data)"


def test_unknown_kind_rejected(archive):
    with pytest.raises(ValueError):
        MadDashGrid(archive).build("p4_rtt_banana")


# -- dashboard ---------------------------------------------------------------


def test_dashboard_structure(archive):
    dash = build_dashboard(archive)
    assert dash["title"] == "P4-perfSONAR"
    titles = [p["title"] for p in dash["panels"]]
    assert "Per-flow throughput" in titles
    assert "Jain's fairness index" in titles
    thr_panel = next(p for p in dash["panels"] if p["title"] == "Per-flow throughput")
    # One target per destination group.
    aliases = {t["alias"] for t in thr_panel["targets"]}
    assert aliases == {"10.1.0.10", "10.2.0.10", "10.3.0.10"}
    assert all("query" in t for t in thr_panel["targets"])
    # Unique panel ids.
    ids = [p["id"] for p in dash["panels"]]
    assert len(ids) == len(set(ids))


def test_panel_series_grouping(archive):
    series = panel_series(archive, "p4_throughput")
    assert set(series) == {"10.1.0.10", "10.2.0.10", "10.3.0.10"}
    assert series["10.1.0.10"] == [(1.0, 90e6), (2.0, 95e6)]  # time-sorted


def test_panel_series_empty():
    assert panel_series(Archiver(), "p4_throughput") == {}
