"""Mutation tests for the batched kernel (the equivalence harness' teeth).

Each test wraps one kernel unit with ``monkeypatch`` — the hash unit
(:func:`repro.core.batch.hash_lanes`) or one replay unit — and corrupts
the lanes that unit returns or receives, then runs the full
batched-vs-scalar comparison: the scalar reference must stay green
against the oracle, the differential checker must fail the batched run
on the expected metric class, and the equivalence harness itself must
flag the divergence.  Only the batched run calls the kernel, so the
scalar reference runs unpatched.

Mutations only *copy values between rows of the same batch* (or zero a
lane), the faults a broken hash or update unit would make: every unit
derives its batch-local register files from the lanes it is handed, so
a corrupted lane lands in real cells.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import batch
from repro.core.config import MonitorConfig
from repro.core.flow_table import PORT_INGRESS_TAP
from repro.validation.equivalence import compare_paths
from repro.validation.scenarios import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SEED = 0


def mutated_compare(monkeypatch, owner, name, corrupt):
    """Compare both paths with ``owner.name`` replaced by
    ``corrupt(original)``."""
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    cmp = compare_paths(ScenarioSpec.from_seed(SEED))
    assert cmp.batched_run.scenario.monitor.kernel is not None, (
        "batched path did not engage")
    return cmp


def assert_caught(cmp, metrics):
    """The corruption must be visible three ways: harness divergence,
    batched-run checker failure on an expected metric, scalar run clean."""
    assert not cmp.passed, "mutated batched run compared equal to scalar"
    assert cmp.scalar_report.passed, cmp.scalar_report.summary()
    assert not cmp.batched_report.passed, (
        "differential checker missed the corruption")
    failed = {r.metric for r in cmp.batched_report.failures}
    assert failed & set(metrics), (
        f"expected a failure in {sorted(metrics)}, got {sorted(failed)}\n"
        + cmp.batched_report.summary())


def test_flow_hash_collision_lane_is_caught(monkeypatch):
    """The hash unit hands one flow's identity lanes (flow IDs and
    count-min columns) to ingress rows of flows in other slots:
    accounting lands in the wrong slot."""
    mask = MonitorConfig().flow_slots - 1

    def corrupt(hash_lanes):
        def collide(c, *geometry):
            ids = hash_lanes(c, *geometry)
            ingress = np.flatnonzero(c.port == PORT_INGRESS_TAP)
            donors = ingress[c.plen[ingress] > 0]
            if donors.size:
                d = donors[0]
                rows = ingress[(ids.fid[ingress] & mask) != (ids.fid[d] & mask)]
                ids.fid[rows], ids.rid[rows] = ids.fid[d], ids.rid[d]
                ids.cms[:, rows] = ids.cms[:, [d]]
            return ids
        return collide

    cmp = mutated_compare(monkeypatch, batch, "hash_lanes", corrupt)
    assert_caught(cmp, {"flow_bytes", "flow_pkts", "tracking", "sketch"})


def test_rtt_stash_overwrite_is_caught(monkeypatch):
    """The hash unit aliases every data packet's stash signature to the
    first row's: all eACK entries pile onto one cell, ACKs stop
    matching, and the RTT sample stream starves."""
    def corrupt(hash_lanes):
        def alias(c, *geometry):
            ids = hash_lanes(c, *geometry)
            ids.sig_data[:] = ids.sig_data[0]
            return ids
        return alias

    cmp = mutated_compare(monkeypatch, batch, "hash_lanes", corrupt)
    assert_caught(cmp, {"rtt_sample_count", "rtt_envelope", "rtt_locality"})


def test_sketch_increment_suppression_is_caught(monkeypatch):
    """The flow-table unit receives an all-zero payload lane: the sketch
    never counts a byte, heavy flows never claim a slot."""
    def corrupt(run):
        def suppress(unit, c, ids):
            zeroed = SimpleNamespace(**{**vars(c), "plen": np.zeros_like(c.plen)})
            return run(unit, zeroed, ids)
        return suppress

    cmp = mutated_compare(monkeypatch, batch.FlowTableUnit, "run", corrupt)
    assert_caught(cmp, {"tracking", "sketch", "long_flow_claim"})


def test_dropped_register_tally_is_caught(monkeypatch):
    """The RTT/loss unit loses its eack_sig op tally (state untouched):
    the harness must flag exactly that register, or
    ``repro_p4_register_ops`` could drift from the scalar path's meaning
    unnoticed."""
    def drop_tally(run):
        unit = run.scenario.monitor.kernel.units[1]
        assert isinstance(unit, batch.RttLossUnit)
        monkeypatch.setattr(unit, "registers", tuple(
            SimpleNamespace(ops=0) if reg.name == "eack_sig" else reg
            for reg in unit.registers))

    cmp = compare_paths(ScenarioSpec.from_seed(SEED),
                        run_hooks=(drop_tally, None))
    assert cmp.batched_report.passed, cmp.batched_report.summary()
    assert len(cmp.mismatches) == 1, cmp.summary()
    assert cmp.mismatches[0].startswith("register_ops[eack_sig]:")
