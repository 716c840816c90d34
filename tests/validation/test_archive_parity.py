"""The archive holds what the control plane shipped, row for row, and
``compare_paths`` reads it.

The control plane keeps no copy of what it shipped, only a tally per
Report_v1 type; its report streams are views rebuilding records from
the archive.  On one validation seed with histograms, forensics and a
threshold alert on, every index holds as many documents as the control
plane counted handing over, and every record a view rebuilds writes its
archived document again.  ``compare_paths`` compares the two runs'
archives, so a corrupted document in any index shows up there.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import MetricKind
from repro.validation.equivalence import compare_paths
from repro.validation.scenarios import ScenarioSpec

SEED = 0
#: What the archive adds to a shipped document: its id and index, and
#: Logstash's Report_v2 metadata.
ARCHIVE_FIELDS = ("_id", "_index", "@version", "host", "tags")


def _plain(docs) -> list:
    """Documents as JSON would carry them (tuples become lists)."""
    return json.loads(json.dumps(docs))


def _archived(archiver, kind: str, **terms) -> list:
    docs = archiver.documents(kind, **terms)
    for doc in docs:
        for name in ARCHIVE_FIELDS:
            del doc[name]
    return _plain(docs)


def _shipped(log) -> list:
    return _plain([record.to_document() for record in log])


@pytest.fixture(scope="module")
def run():
    built = ScenarioSpec.from_seed(SEED).clone(histograms=True, forensics=True).build()
    built.scenario.control_plane.apply_metric_config(
        MetricKind.QUEUE_OCCUPANCY, alert_enabled=True, alert_threshold=30.0)
    built.run()
    return built


def test_every_log_equals_its_archive_index(run):
    cp, archiver = run.scenario.control_plane, run.scenario.archiver
    logs = {f"p4_{kind.value}": log for kind, log in cp.flow_samples.items()}
    logs.update({
        "p4_jitter": cp.jitter_samples,
        "p4_aggregate": cp.aggregate_samples,
        "p4_microburst": cp.microbursts,
        "p4_flow_termination": cp.terminations,
        "p4_limiter": cp.limiter_reports,
        archiver.HISTOGRAM_KIND: cp.histogram_reports,
        archiver.FORENSICS_KIND: cp.forensics_reports,
    })
    for kind, log in logs.items():
        assert log, f"{kind}: the seed ships none"
        assert archiver.count(kind) == cp.tallies[kind] == len(log), kind
        assert _archived(archiver, kind) == _shipped(log), kind
    # Threshold alerts and the histogram extractor's change points share
    # one index.
    changes = cp.histograms.change_points
    assert cp.alerts.history and changes
    assert _archived(archiver, "p4_alert", metric="queue_occupancy") == \
        _shipped(cp.alerts.history)
    assert _archived(archiver, "p4_alert", metric="rtt_distribution") == \
        _shipped(changes)
    assert archiver.count("p4_alert") == len(cp.alerts.history) + len(changes)
    assert len(archiver.store.indices) == len(logs) + 1


def _corrupt_last_documents(built) -> None:
    """After the run, rewrite the last document of every index with its
    timestamp moved by a second."""
    play = built.run

    def run_then_corrupt():
        play()
        store = built.scenario.archiver.store
        for index in store.indices:
            doc = store.search(index)[-1]
            store.delete(index, [doc.pop("_id")])
            del doc["_index"]
            doc["@timestamp"] += 1.0
            store.index(index, doc)

    built.run = run_then_corrupt


def test_compare_paths_reports_a_corrupted_document_in_each_index():
    spec = ScenarioSpec.from_seed(SEED).clone(histograms=True, forensics=True)
    cmp = compare_paths(spec, run_hooks=(None, _corrupt_last_documents))
    indices = cmp.scalar_run.scenario.archiver.store.indices
    assert len(indices) >= 10
    reported = [m.split("[")[0] for m in cmp.mismatches]
    assert reported == indices, cmp.summary()
    assert cmp.oracle_passed
