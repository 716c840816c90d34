"""Scalar ↔ batched hot-path equivalence (the twin contract).

Every seed runs the same fuzz-derived scenario through both monitor hot
paths and asserts bit-identical outcomes: state digest, every register /
sketch / histogram-bank array, both runs' archives, the
differential-oracle verdicts and the op tallies observers read — and,
with telemetry enabled, the pipeline's stage counters and latency count
(the kernel stays engaged there).  The same holds under the phase
profiler (one ``p4.process`` charge per flush, its count still copies)
and under an installed fault injector.  ``REPRO_FUZZ_SEEDS`` (ints,
commas or ``A..B`` ranges) widens the seed set — the CI
``batch-equivalence`` job derives it from the run id so coverage drifts
across runs.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import telemetry
from repro.core.batch import BatchKernel
from repro.netsim.observer import observe_host_rx
from repro.resilience import faults
from repro.resilience.schedule import FaultSchedule
from repro.telemetry import profiling
from repro.validation.equivalence import compare_paths
from repro.validation.scenarios import ScenarioSpec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_HIST_SEEDS = (0, 1, 2)


def _env_seeds(default):
    raw = os.environ.get("REPRO_FUZZ_SEEDS", "").strip()
    if not raw:
        return default
    seeds = []
    for token in raw.replace(",", " ").split():
        if ".." in token:
            lo, hi = token.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(token))
    return tuple(seeds)


SEEDS = _env_seeds(DEFAULT_SEEDS)
HIST_SEEDS = _env_seeds(DEFAULT_HIST_SEEDS)[:3]


@pytest.fixture(scope="module")
def comparisons():
    """Cache per (seed, histograms): each comparison is two full runs.
    Histograms come with queue forensics, the other extern set a spec
    switches on."""
    cache = {}

    def get(seed: int, histograms: bool = False):
        key = (seed, histograms)
        if key not in cache:
            spec = ScenarioSpec.from_seed(seed).clone(
                histograms=histograms, forensics=histograms)
            cache[key] = compare_paths(spec)
        return cache[key]

    return get


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_equivalent(comparisons, seed):
    cmp = comparisons(seed)
    assert cmp.passed, cmp.summary()


@pytest.mark.parametrize("seed", SEEDS)
def test_both_paths_green_against_oracle(comparisons, seed):
    cmp = comparisons(seed)
    assert cmp.batched_report.passed, cmp.batched_report.summary()
    assert cmp.scalar_report.passed, cmp.scalar_report.summary()


@pytest.mark.parametrize("seed", HIST_SEEDS)
def test_histogram_banks_equivalent(comparisons, seed):
    """Histograms and time windows double the stateful surface (two
    banks + active flag per extern); the read-flip extraction and the
    forensics reports must agree too."""
    cmp = comparisons(seed, histograms=True)
    assert cmp.passed, cmp.summary()
    state = cmp.batched_run.scenario.monitor.program.state_snapshot()
    for kind in ("histogram/", "time_window/"):
        assert any(k.startswith(kind) for k in state), (
            f"{kind} banks enabled but not in the snapshot")
    assert cmp.batched_run.scenario.control_plane.forensics_reports


def test_digest_order_across_streams_is_compared(monkeypatch):
    """A kernel that emits a flush's microburst digests after its
    flow-table digests keeps every stream equal on its own; only the
    digest sequence shows it (seed 0 interleaves them in one flush)."""
    emit = BatchKernel._emit

    def microburst_last(kernel, digests, syncs):
        burst = kernel.units[-1].stage.digest
        emit(kernel, sorted(digests, key=lambda d: d[1] is burst), syncs)

    monkeypatch.setattr(BatchKernel, "_emit", microburst_last)
    cmp = compare_paths(ScenarioSpec.from_seed(0))
    assert len(cmp.mismatches) == 1, cmp.summary()
    assert cmp.mismatches[0].startswith("digest_sequence["), cmp.summary()


def test_comparison_covers_the_full_surface(comparisons):
    """The harness actually looked at everything it claims to: digest,
    arrays, every archive index, oracle checks."""
    cmp = comparisons(SEEDS[0])
    state = cmp.batched_run.scenario.monitor.program.state_snapshot()
    indices = len(cmp.batched_run.scenario.archiver.store.indices)
    # digest + key-set + per-array + indices + 2 oracle checks
    assert cmp.checks >= 2 + len(state) + indices + 2


def test_batched_path_engaged(comparisons):
    """Guard against silently comparing scalar to scalar."""
    cmp = comparisons(SEEDS[0])
    assert cmp.batched_run.scenario.monitor.kernel is not None
    assert cmp.scalar_run.scenario.monitor.kernel is None


def test_traffic_actually_flowed(comparisons):
    cmp = comparisons(SEEDS[0])
    mon = cmp.batched_run.scenario.monitor
    assert mon.copies_ingress > 100
    assert any(cmp.batched_run.scenario.control_plane.flow_samples.values())


def test_oracle_streams_keep_their_size():
    """What the oracle is fed does not depend on how many engine events
    a hop costs: seed 0's stream sizes, pinned from the two-event port."""
    run = ScenarioSpec.from_seed(0).build()
    for host in run.scenario.topology.all_hosts:
        observe_host_rx(run.stream, host)
    kinds = Counter()
    run.stream.subscribe(lambda ev: kinds.update((ev.kind.name,)))
    run.run()
    assert kinds == {"SWITCH_INGRESS": 4640, "PORT_EGRESS": 2335,
                     "HOST_RX": 4592, "QUEUE_DROP": 48}
    assert run.check().passed


def _series(name):
    return {tuple(s["labels"].values()): s.get("value", s.get("count"))
            for fam in telemetry.snapshot()["metrics"]
            if fam["name"] == name for s in fam["series"]}


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_equivalent_under_telemetry(comparisons, seed):
    """Telemetry is a per-batch observer: the kernel stays engaged, and
    the register/sketch/digest tallies and stage counters it reports
    equal the scalar twin's."""
    unobserved = comparisons(seed)
    telemetry.reset()
    telemetry.enable()
    try:
        cmp = compare_paths(ScenarioSpec.from_seed(seed))
        assert cmp.batched_run.scenario.monitor.kernel is not None
        assert cmp.scalar_run.scenario.monitor.kernel is None
        assert cmp.passed, cmp.summary()
        # The telemetry cells really were part of the comparison ...
        assert cmp.checks > unobserved.checks
        # ... and saw each run's copies (both runs feed the same cells).
        mon = cmp.batched_run.scenario.monitor
        copies = mon.copies_ingress + mon.copies_egress
        parser = mon.pipeline.parser
        stage_pkts = _series("repro_p4_stage_packets_total")
        assert stage_pkts[("monitor", "parser")] == 2 * copies
        assert stage_pkts[("monitor", "rtt_loss")] == 2 * parser.accepted
        assert _series("repro_p4_stage_drops_total").get(
            ("monitor", "parser"), 0) == 2 * parser.rejected
    finally:
        telemetry.disable()
        telemetry.reset()
    assert cmp.batched_run.scenario.monitor.program.state_digest() == \
        unobserved.batched_run.scenario.monitor.program.state_digest()


def _engaged(cmp):
    """The batched side really ran the kernel behind the TAP's fast
    mirror path, the scalar side really did not."""
    batched, scalar = cmp.batched_run.scenario, cmp.scalar_run.scenario
    assert batched.monitor.kernel is not None
    assert batched.topology.tap._fast_buf is batched.monitor.batch_buffer
    assert scalar.monitor.kernel is None


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_equivalent_under_block_profiler(comparisons, seed):
    """The phase profiler is a per-batch observer too: the kernel
    stays engaged, ``p4.process`` counts one event per copy on either
    path, and the op-count sources read the same on both."""
    unobserved = comparisons(seed)
    prof = profiling.enable(mode="phase")
    cell = prof.cell("p4.process")
    built = {}

    def mark(side):
        # Runs after build, before the run: both sides share the one
        # profiler, so each side's count is a difference, and a side's
        # sources must be kept before the next build re-registers them.
        def hook(run):
            built[side] = (cell[2], dict(prof._sources))
        return hook

    try:
        cmp = compare_paths(ScenarioSpec.from_seed(seed),
                            run_hooks=(mark("batched"), mark("scalar")))
        _engaged(cmp)
        assert cmp.passed, cmp.summary()
        counted = {"batched": built["scalar"][0] - built["batched"][0],
                   "scalar": cell[2] - built["scalar"][0]}
        sources = {side: {name: fn() for name, fn in built[side][1].items()}
                   for side in built}
    finally:
        profiling.disable()
    for side, run in (("batched", cmp.batched_run), ("scalar", cmp.scalar_run)):
        mon = run.scenario.monitor
        assert counted[side] == mon.copies_ingress + mon.copies_egress
        assert counted[side] == sources[side]["p4.tap_copies"] > 0
    assert sources["batched"] == sources["scalar"]
    assert cmp.batched_run.scenario.monitor.program.state_digest() == \
        unobserved.batched_run.scenario.monitor.program.state_digest()


@pytest.mark.parametrize("seed", SEEDS)
def test_paths_equivalent_under_fault_injector(comparisons, seed):
    """No fault kind touches a data-plane operation, so an installed
    injector leaves the kernel engaged and the data plane unchanged."""
    unobserved = comparisons(seed)
    faults.install(faults.FaultInjector(FaultSchedule(seed=seed)))
    try:
        cmp = compare_paths(ScenarioSpec.from_seed(seed))
    finally:
        faults.uninstall()
    _engaged(cmp)
    assert cmp.batched_run.scenario.control_plane._faults is not None
    assert cmp.passed, cmp.summary()
    assert cmp.batched_run.scenario.monitor.program.state_digest() == \
        unobserved.batched_run.scenario.monitor.program.state_digest()
