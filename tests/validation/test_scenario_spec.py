"""Seeded scenario generation: determinism, serialisation, shrink candidates."""

from __future__ import annotations

import pytest

from repro.validation.fuzz import _candidates
from repro.validation.scenarios import (
    SPEC_SCHEMA,
    BurstSpec,
    FlowSpec,
    ScenarioSpec,
)


def test_from_seed_is_deterministic():
    for seed in range(12):
        a, b = ScenarioSpec.from_seed(seed), ScenarioSpec.from_seed(seed)
        assert a.to_jsonable() == b.to_jsonable(), f"seed {seed} diverged"


def test_distinct_seeds_differ():
    docs = {repr(ScenarioSpec.from_seed(s).to_jsonable()) for s in range(20)}
    assert len(docs) == 20


def test_json_round_trip_is_identity():
    for seed in (0, 1, 7, 13):
        spec = ScenarioSpec.from_seed(seed)
        doc = spec.to_jsonable()
        back = ScenarioSpec.from_jsonable(doc)
        assert back.to_jsonable() == doc


def test_from_jsonable_rejects_unknown_schema():
    doc = ScenarioSpec.from_seed(0).to_jsonable()
    doc["schema"] = "repro-validate-v999"
    with pytest.raises(ValueError):
        ScenarioSpec.from_jsonable(doc)


def test_clone_is_independent():
    spec = ScenarioSpec.from_seed(2)
    clone = spec.clone()
    clone.flows.pop()
    clone.duration_s /= 2
    assert len(spec.flows) != len(clone.flows) or spec.duration_s != clone.duration_s
    assert spec.to_jsonable() == ScenarioSpec.from_seed(2).to_jsonable()


def test_generated_specs_are_well_formed():
    for seed in range(25):
        spec = ScenarioSpec.from_seed(seed)
        assert 1 <= len(spec.flows) <= 3
        assert 6.0 <= spec.duration_s <= 12.0
        assert len(spec.rtts_ms) == 3 and sorted(spec.rtts_ms) == list(spec.rtts_ms)
        for flow in spec.flows:
            assert 0 <= flow.dst_index < 3
            assert flow.start_s + flow.duration_s <= spec.duration_s + 1e-9
            assert flow.cc in ("cubic", "reno")
        assert spec.end_s > spec.duration_s  # trailer for late ACKs


def test_has_reordering_flags_jitter_and_reorder():
    plain = ScenarioSpec.from_seed(0)
    plain.jitters.clear()
    plain.reorders.clear()
    assert not plain.has_reordering
    reordered = ScenarioSpec.from_seed(1)
    assert reordered.reorders and reordered.has_reordering


def test_shrink_candidates_drop_one_axis_at_a_time():
    spec = ScenarioSpec.from_seed(9)  # loss + jitter + burst + flap
    items = (len(spec.flows) + len(spec.losses) + len(spec.jitters)
             + len(spec.reorders) + len(spec.bursts) + len(spec.flaps))
    cands = list(_candidates(spec))
    # one candidate per removable item (flows keep >= 1) + one duration halving
    removable = items - (1 if len(spec.flows) == 1 else 0)
    assert len(cands) == removable + (1 if spec.duration_s > 4.0 else 0)
    for cand in cands:
        assert cand.to_jsonable() != spec.to_jsonable()
        assert len(cand.flows) >= 1


def test_shrink_candidates_never_mutate_parent():
    spec = ScenarioSpec.from_seed(9)
    snapshot = spec.to_jsonable()
    for cand in _candidates(spec):
        cand.flows.append(FlowSpec(dst_index=0, start_s=0.0, duration_s=1.0))
        cand.bursts.append(BurstSpec(at_s=1.0, nbytes=1000, dst_index=0))
    assert spec.to_jsonable() == snapshot


def test_build_smoke_runs_shortest_scenario():
    spec = ScenarioSpec.from_seed(0)
    spec.flows = [FlowSpec(dst_index=0, start_s=0.1, duration_s=0.5)]
    spec.losses.clear()
    spec.bursts.clear()
    spec.duration_s = 1.0
    run = spec.build()
    run.run()
    assert run.oracle.total_tcp_payload_bytes > 0
    report = run.check()
    assert report.passed, report.summary()


def test_spec_schema_constant_matches_documents():
    assert ScenarioSpec.from_seed(0).to_jsonable()["schema"] == SPEC_SCHEMA
