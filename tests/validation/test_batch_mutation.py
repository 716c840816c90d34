"""Mutation tests for the batched kernel (the equivalence harness' teeth).

Each test installs a ``kernel.debug_mutator`` that corrupts one lane of
the precomputed columns before the fused replay, then runs the full
batched-vs-scalar comparison: the scalar reference must stay green
against the oracle, the differential checker must fail the batched run
on the expected metric class, and the equivalence harness itself must
flag the divergence.

Mutators only *copy values between rows of the same batch* (or zero an
additive lane): phase 2 preloads its register overlays from the batch's
flow memo and signature columns, so invented identities would miss the
preload domain rather than model a plausible data-plane fault.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.flow_table import PORT_INGRESS_TAP
from repro.validation.equivalence import compare_paths
from repro.validation.scenarios import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SEED = 0


def mutated_compare(mutator):
    spec = ScenarioSpec.from_seed(SEED)

    def batched_hook(run):
        kernel = run.scenario.monitor.kernel
        assert kernel is not None, "batched path did not engage"
        kernel.debug_mutator = mutator

    return compare_paths(spec, run_hooks=(batched_hook, None))


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


def test_flow_hash_collision_lane_is_caught():
    """Copy one flow's identity lanes (fid/rid/slot/rows) onto rows of a
    different flow: accounting lands in the wrong slot."""
    def collide(cols):
        valid, port, plen, slot = (cols["valid"], cols["port"],
                                   cols["plen"], cols["slot"])
        donor = next((i for i in range(len(valid))
                      if valid[i] and port[i] == PORT_INGRESS_TAP
                      and plen[i] > 0), None)
        if donor is None:
            return
        for i in range(len(valid)):
            if (valid[i] and port[i] == PORT_INGRESS_TAP
                    and slot[i] != slot[donor]):
                for lane in ("fid", "rid", "slot", "rows"):
                    cols[lane][i] = cols[lane][donor]

    cmp = mutated_compare(collide)
    assert_caught(cmp, {"flow_bytes", "flow_pkts", "tracking", "sketch"})


def test_rtt_stash_overwrite_is_caught():
    """Alias every data packet's stash signature to the first row's:
    all eACK entries pile onto one cell, ACKs stop matching, and the
    RTT sample stream starves."""
    def alias(cols):
        sig = cols["sig_data"]
        if not sig:
            return
        first = sig[0]
        for i in range(len(sig)):
            sig[i] = first

    cmp = mutated_compare(alias)
    assert_caught(cmp, {"rtt_sample_count", "rtt_envelope", "rtt_locality"})


def test_sketch_increment_suppression_is_caught():
    """Zero the CMS add lane: estimates never reach the long-flow
    threshold, heavy flows never claim a slot."""
    def suppress(cols):
        add = cols["cms_add"]
        for i in range(len(add)):
            add[i] = 0

    cmp = mutated_compare(suppress)
    assert_caught(cmp, {"tracking", "sketch", "long_flow_claim"})


def test_dropped_register_tally_is_caught():
    """Lose one register's op tally in the kernel (state untouched): the
    harness must flag exactly that register, or ``repro_p4_register_ops``
    could drift from the scalar path's meaning unnoticed."""
    def drop_tally(run):
        kernel = run.scenario.monitor.kernel
        assert kernel is not None, "batched path did not engage"
        kernel._op_regs = tuple(
            SimpleNamespace(ops=0) if reg.name == "eack_sig" else reg
            for reg in kernel._op_regs)

    cmp = compare_paths(ScenarioSpec.from_seed(SEED),
                        run_hooks=(drop_tally, None))
    assert cmp.batched_report.passed, cmp.batched_report.summary()
    assert len(cmp.mismatches) == 1, cmp.summary()
    assert cmp.mismatches[0].startswith("register_ops[eack_sig]:")


def test_mutator_hook_is_dormant_by_default():
    """No mutator installed → the kernel runs clean (guards against the
    hook leaking state between tests)."""
    spec = ScenarioSpec.from_seed(SEED)
    run = spec.build()
    assert run.scenario.monitor.kernel.debug_mutator is None
