"""Distribution reports in the archive and dashboard.

Regression coverage for the scalar-series assumption that used to live in
``dashboard.py``: histogram documents carry ``counts``/percentile fields,
not a scalar ``value``, and must render as percentile bands without
perturbing the existing scalar panels.
"""

import pytest

from repro.core.reports import Block, document_run
from repro.perfsonar.archiver import Archiver
from repro.perfsonar.dashboard import (
    PERCENTILE_FIELDS,
    build_dashboard,
    panel_series,
)


def _hist_doc(ts, flow_id, scope="flow", metric="rtt", p50=5.0, p99=6.0,
              **extra):
    doc = {
        "type": "repro-histogram-v1",
        "@timestamp": ts,
        "metric": metric,
        "scope": scope,
        "edges_ns": [1_000_000, 10_000_000],
        "counts": [0, 10, 0],
        "count": 10,
        "window_count": 10,
        "p50_ms": p50,
        "p90_ms": (p50 + p99) / 2,
        "p99_ms": p99,
        "p999_ms": p99,
    }
    if flow_id is not None:
        doc["flow_id"] = flow_id
        doc["source_ip"] = "10.0.0.10"
        doc["destination_ip"] = "10.1.0.10"
    doc.update(extra)
    return doc


@pytest.fixture
def scalar_archive():
    arch = Archiver()
    arch.sink(Block([document_run({"type": "p4_throughput", "source_ip": "10.0.0.10",
                                   "destination_ip": "10.1.0.10", "@timestamp": 1.0,
                                   "value": 90e6, "flow_id": 7})]))
    return arch


@pytest.fixture
def mixed_archive(scalar_archive):
    arch = scalar_archive
    for ts in (1.0, 2.0, 3.0):
        arch.sink(Block([document_run(doc) for doc in (
            _hist_doc(ts, flow_id=7, p50=5.0, p99=5.0 + ts),
            _hist_doc(ts, flow_id=9, p50=8.0, p99=9.0),
            _hist_doc(ts, flow_id=None, scope="all"),
            _hist_doc(ts, flow_id=None, scope="port", metric="queue_depth",
                      port_id=2))]))
    return arch


# -- archiver query helpers --------------------------------------------------

def test_histogram_count_and_documents(mixed_archive):
    assert mixed_archive.histogram_count() == 12
    flow7 = mixed_archive.histogram_documents(scope="flow", flow_id=7)
    assert len(flow7) == 3
    assert all(d["flow_id"] == 7 for d in flow7)
    ports = mixed_archive.histogram_documents(metric="queue_depth", port_id=2)
    assert len(ports) == 3


def test_histogram_latest_picks_newest(mixed_archive):
    latest = mixed_archive.histogram_latest(scope="flow", flow_id=7)
    assert latest["@timestamp"] == 3.0
    assert latest["p99_ms"] == 8.0
    assert Archiver().histogram_latest() is None


# -- dashboard ---------------------------------------------------------------

def test_scalar_dashboard_unchanged_without_histograms(scalar_archive):
    dash = build_dashboard(scalar_archive)
    titles = [p["title"] for p in dash["panels"]]
    assert "RTT distribution (percentile bands)" not in titles
    assert "Per-flow throughput" in titles


def test_distribution_panel_appears_with_histograms(mixed_archive):
    dash = build_dashboard(mixed_archive)
    panel = next(p for p in dash["panels"]
                 if p["title"] == "RTT distribution (percentile bands)")
    assert panel["fieldConfig"]["defaults"]["unit"] == "ms"
    # One target per flow x percentile field, each with a typed query.
    assert len(panel["targets"]) == 2 * len(PERCENTILE_FIELDS)
    for target in panel["targets"]:
        assert "repro-histogram-v1" in target["query"]
        assert "scope:flow" in target["query"]
    ids = [p["id"] for p in dash["panels"]]
    assert len(ids) == len(set(ids))


def test_scalar_panels_survive_mixed_archive(mixed_archive):
    # The old bug: histogram docs (no scalar "value") crashed or polluted
    # the scalar series builders.
    series = panel_series(mixed_archive, "p4_throughput")
    assert series == {"10.1.0.10": [(1.0, 90e6)]}
