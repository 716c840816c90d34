"""Command-line experiment runner.

``repro-experiments <name>`` runs one entry of the paper's evaluation,
:data:`repro.experiments.paper.PAPER` (a table, figure or ablation), at
full scale and prints its panels or table, ending with its claims table;
it exits 1 when a claim fails.  ``--quick`` runs the entry's reduced
scale instead, ``ablations`` runs the six ablations and ``all`` every
entry in table order, e.g.::

    repro-experiments fig9 --duration 40 --join 15
    repro-experiments ablations
    repro-experiments all --quick

The other modes observe a run (``stats``, ``watch``, ``histograms``,
``forensics``, ``trace``: docs/observability.md; ``profile``:
docs/profiling.md) or check one (``validate``, ``chaos``, ``recover``);
``--telemetry``, ``--trace-out`` and ``--profile-out`` observe any verb.

Progress goes through :mod:`logging` (stderr, ``--verbose``/``--quiet``);
experiment results stay on stdout so pipelines can capture them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro import configure_logging, telemetry
from repro.experiments.common import Scenario, ScenarioConfig
from repro.experiments.fig11_microburst import PAPER_CONFIG, run_fig11
from repro.experiments.paper import PAPER
from repro.telemetry import profiling, profviz, provenance, traceviz

log = logging.getLogger("repro.cli")

# --duration and --join reach the PAPER runs whose signature takes them.
RUN_FLAGS = {"duration": "duration_s", "join": "join_s"}


def _runs(args) -> Dict[str, dict]:
    """The verb's PAPER runs (histograms/forensics: fig11's) and their
    kwargs: none, or ``reduced`` under --quick, plus each flag taken."""
    verb = args.experiment
    names = ["fig11"] if verb in ("histograms", "forensics") else [
        name for name in PAPER if verb in (name, "all")
        or verb == "ablations" and name.startswith("ablation_")]
    runs = {}
    for name in names:
        runs[name] = dict(PAPER[name].reduced) if args.quick else {}
        takes = inspect.signature(PAPER[name].run).parameters
        for flag, param in RUN_FLAGS.items():
            if getattr(args, flag) is not None and param in takes:
                runs[name][param] = getattr(args, flag)
    return runs


def _paper(args, name: str) -> str:
    """Run and render one PAPER entry; a failed claim fails the verb."""
    experiment = PAPER[name]
    result = experiment.run(**args.runs[name])
    args.failed |= not all(c.holds for c in experiment.claims(result))
    return experiment.render(result)


def _microburst_scenario(args, **monitor_overrides):
    """Fig. 11's run at the verb's scale, with register sets on."""
    kwargs = dict(args.runs["fig11"])
    kwargs["config"] = replace(kwargs.get("config", PAPER_CONFIG),
                               monitor_overrides=monitor_overrides)
    return PAPER["fig11"].run(**kwargs).scenario


# The other modes' workload in simulated seconds, unless --duration.
MODE_DURATION_S, QUICK_DURATION_S = 40.0, 20.0


def _instrumented_scenario(args, **monitor_overrides):
    """The shared stats/watch/profile workload: two flows plus a mild
    seeded loss impairment so the loss/alert paths light up
    deterministically; run it for ``args.duration + 2`` seconds."""
    scenario = Scenario(
        ScenarioConfig(bottleneck_mbps=25.0, rtts_ms=(20.0, 30.0, 40.0),
                       reference_rtt_ms=40.0,
                       monitor_overrides=monitor_overrides),
        with_perfsonar=True,
    )
    scenario.add_flow(0, duration_s=args.duration)
    scenario.add_flow(1, start_s=args.duration / 4, duration_s=args.duration)
    scenario.add_path_loss(1, loss_rate=0.002, seed=args.seed)
    return scenario


def _stats(args) -> str:
    """An instrumented fig9-style run at the requested ``--duration`` and
    ``--seed``; the 'result' is the metrics snapshot itself (netsim, P4
    stages, control plane, archiver), rendered per ``--telemetry-format``."""
    log.info("stats: instrumented run, %.0f simulated seconds (seed %d)",
             args.duration, args.seed)
    _instrumented_scenario(args).run(args.duration + 2.0)
    return _render_snapshot(args)


def _watch(args) -> str:
    """Flight-recorder mode: the stats workload with a time-series sampler
    archiving every tick, and a refreshing top-N/sparkline terminal view,
    read from the archive, during the run."""
    from repro.telemetry.timeseries import TelemetrySampler
    from repro.telemetry.watch import render_watch

    scenario = _instrumented_scenario(args, histograms_enabled=True,
                                      forensics_enabled=True)
    archiver = scenario.archiver
    interval_ns = max(1, int(args.sample_interval * 1e6))
    sampler = TelemetrySampler(scenario.sim, archiver, interval_ns=interval_ns,
                               retention=args.retention)
    extractor = scenario.control_plane.histograms
    forensics = scenario.control_plane.forensics

    clear = "\x1b[H\x1b[2J" if sys.stdout.isatty() else ""
    frame_every = max(1, int(args.refresh * 1e9 / interval_ns))

    def render(t_ns) -> str:
        sim = scenario.sim
        return render_watch(
            sampler, top=args.top, now_ns=t_ns,
            samples=sampler.samples_taken,
            alerts=scenario.control_plane.alerts.active_alerts,
            sim_stats=(f"scheduler: pending={sim.pending} queue-hwm="
                       f"{sim.queue_hwm} events-run={sim.events_run}"),
            hist_line=extractor.watch_line(),
            forensics_line=forensics.watch_line())

    def frame(t_ns, _block) -> None:
        if sampler.samples_taken % frame_every == 0:
            print(clear + render(t_ns), flush=True)

    sampler.add_observer(frame)
    sampler.start()
    try:
        scenario.run(args.duration + 2.0)
    finally:
        sampler.stop()

    return (render(scenario.sim.now)
            + f"\narchived {archiver.telemetry_count()} raw and "
            f"{archiver.telemetry_count(longterm=True)} long-term "
            f"repro_telemetry documents ({sampler.events_pushed} pushed) "
            f"alongside {archiver.measurements_written} "
            "measurement documents")


def _write_documents(path, docs, lines) -> None:
    """``--out`` of the histograms/forensics modes (the CI smoke
    artifact): the archived documents as JSON."""
    if path:
        with open(path, "w") as fh:
            json.dump(docs, fh, indent=2, sort_keys=True)
        lines.append(f"documents written to {path}")


def _histograms(args) -> str:
    """Distribution view: the Fig. 11 microburst run with data-plane
    histograms enabled; prints terminal bin bars and a percentile table
    from the archived ``repro-histogram-v1`` reports, and optionally
    dumps those documents to ``--out``."""
    from repro.core.histograms import render_bins, render_percentiles

    scenario = _microburst_scenario(args, histograms_enabled=True)
    archiver = scenario.archiver
    extractor = scenario.control_plane.histograms

    lines = []
    all_doc = archiver.histogram_latest(metric="rtt", scope="all")
    if all_doc is not None:
        lines.append("RTT distribution, all flows "
                     f"({all_doc['count']} samples):")
        lines.append(render_bins(all_doc["edges_ns"], all_doc["counts"]))
        lines.append("")
    rows = []
    if extractor.latest_all is not None:
        rows.append(dict(extractor.latest_all, label="rtt all"))
    for fid, row in sorted(extractor.latest.items()):
        rows.append(dict(row, label=f"rtt flow {fid & 0xFFFFFF:06x}"))
    ports = sorted({d["port_id"] for d in
                    archiver.histogram_documents(metric="queue_depth")})
    for port in ports:
        doc = archiver.histogram_latest(metric="queue_depth", port_id=port)
        rows.append(dict(doc, label=f"qdepth port {port}"))
    if rows:
        lines.append(render_percentiles(rows))
        lines.append("")
    lines.append(f"archived {archiver.histogram_count()} repro-histogram-v1 "
                 f"documents; {len(extractor.change_points)} distribution "
                 "change point(s)")
    _write_documents(args.out, archiver.histogram_documents(), lines)
    return "\n".join(lines)


# Look-back of the forensics mode's explicit query, in base time windows.
FORENSICS_LOOKBACK_WINDOWS = 8192


def _forensics(args) -> str:
    """Queue forensics: the Fig. 11 microburst run with time-window
    registers enabled; prints the alert-triggered culprit attributions
    plus an explicit query over the trailing base windows (``--flow``
    names a victim whose own contribution is excluded), and optionally
    dumps the archived ``repro-forensics-v1`` documents to ``--out``."""
    from repro.core.forensics import MIN_WINDOW_BYTES, render_culprits

    scenario = _microburst_scenario(args, forensics_enabled=True)
    cp = scenario.control_plane
    forensics = cp.forensics
    archiver = scenario.archiver

    lines = []
    for report in cp.forensics_reports:
        lines.append(f"report at t={report.time_ns / 1e9:.2f}s:")
        lines.append(render_culprits(report))
        lines.append("")

    end = scenario.sim.now
    t0 = max(0, end - FORENSICS_LOOKBACK_WINDOWS * forensics.base_window_ns)
    names = ("src_ip", "dst_ip", "src_port", "dst_port")
    victim = next((f.flow_id for f in cp.flows.values()
                   if args.flow is not None and all(
                       getattr(f, k) == getattr(args.flow, k) for k in names)),
                  None)
    query = forensics.query(victim, t0, end)
    span_s = (end - t0) / 1e9
    if query is not None:
        lines.append(f"query over the last {span_s:.1f}s:")
        lines.append(render_culprits(query))
        lines.append("")
    else:
        lines.append(f"query over the last {span_s:.1f}s: suppressed "
                     f"(< {MIN_WINDOW_BYTES} B of window mass)")
    lines.append(f"archived {archiver.forensics_count()} repro-forensics-v1 "
                 f"document(s); {len(cp.microbursts)} microburst(s); "
                 f"{forensics.suppressed} suppressed quer(y|ies)")
    _write_documents(args.out, archiver.forensics_documents(), lines)
    return "\n".join(lines)


def _parse_flow(text: str):
    """argparse type for --flow: the FiveTuple str() format,
    ``src_ip:port->dst_ip:port[/proto]`` (proto defaults to 6/TCP)."""
    from repro.netsim.packet import FiveTuple, ip_to_int

    try:
        body, proto = text, 6
        if "/" in text:
            body, proto_text = text.rsplit("/", 1)
            proto = int(proto_text)
        src, dst = body.split("->", 1)
        src_ip, src_port = src.rsplit(":", 1)
        dst_ip, dst_port = dst.rsplit(":", 1)
        return FiveTuple(ip_to_int(src_ip), ip_to_int(dst_ip),
                         int(src_port), int(dst_port), proto)
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(
            f"flow must look like ip:port->ip:port[/proto], got {text!r}"
        ) from exc


def _trace(args) -> str:
    """Provenance capture on a seeded microburst scenario: a fig11-style
    shallow-buffer topology with a joining flow plus an injected
    line-rate packet train, so the microburst trigger fires
    deterministically.  Prints the per-layer coverage plus an exemplar
    packet timeline; the Perfetto JSON goes to ``--out``."""
    duration = max(args.duration, 20.0)
    join_s = duration * 0.4
    log.info("trace: %.0fs microburst scenario (join burst at %.1fs)",
             duration, join_s)
    scenario = run_fig11(
        duration_s=duration, join_s=join_s, inject_burst_buffers=2.0,
        config=ScenarioConfig(bottleneck_mbps=50.0, rtts_ms=(40.0, 40.0, 40.0),
                              reference_rtt_ms=40.0, buffer_bdp_fraction=0.25),
    ).scenario

    tracer = provenance.tracer()
    events = tracer.events()
    tids = sorted({ev.trace_id for ev in events})
    layers = sorted({ev.layer for ev in events})
    lines = [
        f"recorded {tracer.events_recorded} events "
        f"({len(events)} retained across both windows), "
        f"{len(tids)} distinct packets, layers: {', '.join(layers)}",
        f"microbursts detected: {len(scenario.control_plane.microbursts)}",
        f"trigger dumps: {len(tracer.dumps)}"
        + (" — " + ", ".join(
            f"{d.reason}@{d.t_ns / 1e9:.3f}s({len(d.events)} ev)"
            for d in tracer.dumps[:6]) if tracer.dumps else ""),
    ]
    # Exemplar journey: the packet whose events span the most layers.
    if tids:
        best = max(tids, key=lambda t: len(tracer.layers_for(t)))
        lines.append("")
        lines.append(f"exemplar packet (widest layer coverage, "
                     f"{len(tracer.layers_for(best))} layers):")
        lines.append(traceviz.render_timeline(events, trace_id=best))
    return "\n".join(lines)


def _export_profile(prof, out_prefix: str) -> None:
    """Write the profiler's artifacts under ``out_prefix``.  Phase mode
    yields ``<prefix>.phases.json``; sampling yields
    ``<prefix>.collapsed.txt``."""
    if prof.phases:
        path = f"{out_prefix}.phases.json"
        profviz.write_phase_report(path, prof.report())
        log.info("phase report written to %s", path)
    if prof.sampler is not None:
        collapsed = f"{out_prefix}.collapsed.txt"
        stacks = profviz.write_collapsed(collapsed, prof.sampler.samples)
        log.info("%d stack samples (%d unique) written to %s — load it at "
                 "https://speedscope.app or feed it to flamegraph.pl",
                 prof.sampler.sample_count, stacks, collapsed)


def _profile_summary(prof, top: int) -> str:
    """The stopped profiler's PhaseReport table and, under ``--alloc``,
    the top allocation sites."""
    lines = []
    if prof.phases:
        lines.append(prof.report().render_table(top=top))
        lines.append("")
    if prof.alloc_top:
        lines.append("top allocation sites (tracemalloc):")
        for stat in prof.alloc_top[:8]:
            lines.append(f"  {stat['size_kib']:9.1f} KiB  "
                         f"{stat['count']:8d} blocks  {stat['where']}")
        lines.append("")
    return "\n".join(lines)


def _profile(args) -> str:
    """Performance-attribution run on the substrate scenario (the same
    seeded two-flow workload as 'stats', on the same batched monitor
    path): phase-accounted wall time and/or the sampling flamegraph
    profiler, over the run alone; prints the PhaseReport, artifacts go
    under ``--out`` (see docs/profiling.md)."""
    log.info("profile: mode=%s, %.0f simulated seconds (seed %d)",
             args.mode, args.duration, args.seed)
    scenario = _instrumented_scenario(args)
    with profiling.profiler().running() as prof:
        scenario.run(args.duration + 2.0)
    return _profile_summary(prof, top=20)


def _checked(cast: Callable, ok: Callable, what: str) -> Callable:
    """argparse type for the observer flags: ``cast(text)``, refused
    with a usage error unless ``ok(value)`` — the bounds are the ones
    the sampler, store, stack sampler and tracer constructors enforce."""
    def parse(text: str):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_positive = _checked(float, lambda v: 0 < v < float("inf"),
                     "a positive number")
_unit_interval = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_retention = _checked(int, lambda v: v >= 4, "an integer >= 4")
_window = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _seeds(value) -> list:
    """``--seed`` accepts a single integer or an inclusive range 'A..B'."""
    lo, dots, hi = str(value).partition("..")
    seeds = list(range(int(lo), int(hi if dots else lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {value!r}")
    return seeds


def _seed_spec(text: str):
    """argparse type for --seed: int for plain values, verbatim for
    'A..B' ranges (validated here, expanded by :func:`_seeds`)."""
    _seeds(text)  # raises on malformed/empty ranges
    return text if ".." in text else int(text)


def _validate(args) -> str:
    """Differential validation: run seeded scenarios with the ground-truth
    oracle attached and check every P4-side metric against truth (see
    docs/validation.md).  Failing seeds are shrunk to a minimal scenario
    and serialised as replayable JSON artifacts."""
    from repro.validation.fuzz import (fuzz_seed, load_artifact, run_spec,
                                       write_artifact)

    lines = []

    def _report_lines(name: str, report) -> None:
        status = "pass" if report.passed else "FAIL"
        lines.append(f"{name}: {status} ({len(report.results)} checks, "
                     f"{len(report.skipped)} skipped)")
        if not report.passed:
            args.failed = True
            lines.extend(f"  {r}" for r in report.failures)

    if args.compare_paths:
        from repro.validation.equivalence import compare_paths
        from repro.validation.scenarios import ScenarioSpec

        if args.replay:
            specs = [load_artifact(Path(args.replay))]
        else:
            specs = [ScenarioSpec.from_seed(s) for s in _seeds(args.seed)]
        for spec in specs:
            log.info("compare-paths: seed %d", spec.seed)
            cmp = compare_paths(spec)
            lines.append(cmp.summary())
            if not cmp.oracle_passed:
                lines.append(f"  seed {spec.seed}: oracle FAIL "
                             f"(batched={cmp.batched_report.passed}, "
                             f"scalar={cmp.scalar_report.passed})")
            if not (cmp.passed and cmp.oracle_passed):
                args.failed = True
                path = write_artifact(
                    Path(args.artifact_dir) / f"compare-seed{spec.seed}.json",
                    spec, cmp.batched_report)
                lines.append(f"  artifact: {path}")
    elif args.replay:
        spec = load_artifact(Path(args.replay))
        _report_lines(f"replay {args.replay} (seed {spec.seed})",
                      run_spec(spec))
    elif args.corpus:
        paths = sorted(Path(args.corpus).glob("*.json"))
        if not paths:
            raise SystemExit(f"no *.json artifacts under {args.corpus}")
        for path in paths:
            _report_lines(f"corpus {path.name}", run_spec(load_artifact(path)))
    else:
        artifact_dir = Path(args.artifact_dir)
        for seed in _seeds(args.seed):
            log.info("validate: seed %d", seed)
            outcome = fuzz_seed(seed, artifact_dir=artifact_dir,
                                do_shrink=not args.no_shrink)
            _report_lines(f"seed {seed}", outcome.report)
            if not outcome.passed:
                spec = outcome.minimal_spec
                lines.append(
                    f"  shrunk to {len(spec.flows)} flow(s), "
                    f"{spec.duration_s:.1f}s ({outcome.shrink_runs} runs); "
                    f"artifact: {outcome.artifact_path}")
    # With --trace-out active, a checker mismatch froze the fine window
    # (the oracle-mismatch trigger in ValidationRun.check); surface it.
    tracer = provenance.tracer()
    if tracer is not None and tracer.dumps:
        lines.append(
            f"provenance: {len(tracer.dumps)} fine-window dump(s) captured — "
            + ", ".join(f"{d.reason}@{d.t_ns / 1e9:.3f}s ({len(d.events)} ev)"
                        for d in tracer.dumps[:8]))
    return "\n".join(lines)


def _chaos(args) -> str:
    """Fault-injection runs (docs/robustness.md): a seeded workload plus
    a fault schedule over the report path, then settle the books — no
    acked-report loss, exactly-once archive, oracle checks still green.
    Failing runs are serialised as replayable artifacts."""
    from repro.resilience.chaos import (
        ChaosSpec,
        bundled_chaos,
        load_spec,
        run_chaos,
        with_crash,
        write_artifact,
    )

    artifact_dir = Path(args.artifact_dir)
    lines = []

    def _run_one(name: str, spec) -> None:
        if args.crash and not spec.schedule.has("cp_crash"):
            spec = with_crash(spec)
        log.info("chaos: %s (%s)", name, spec.schedule)
        result = run_chaos(spec, checkpoint_dir=args.checkpoint_dir)
        lines.append(result.summary())
        if not result.passed:
            args.failed = True
            artifact_dir.mkdir(parents=True, exist_ok=True)
            path = artifact_dir / f"chaos-{name}.json"
            write_artifact(result, str(path))
            lines.append(f"  artifact: {path}")

    if args.schedule is not None:
        spec = load_spec(args.schedule)
        name = Path(args.schedule).stem if "." in args.schedule \
            else args.schedule
        _run_one(name, spec)
    else:
        seeds = _seeds(args.seed)
        if len(seeds) == 1:
            # One seed: run every bundled schedule under it, then one
            # fully seed-derived spec.
            for name, spec in bundled_chaos(seed=seeds[0]).items():
                _run_one(name, spec)
            _run_one(f"seed{seeds[0]}", ChaosSpec.from_seed(seeds[0]))
        else:
            for seed in seeds:
                _run_one(f"seed{seed}", ChaosSpec.from_seed(seed))
    return "\n".join(lines)


def _recover(args) -> str:
    """Cold-start recovery smoke (docs/robustness.md "Crash recovery"):
    run a checkpointed workload to completion, then bring a *fresh*
    scenario — new simulator, new data plane, new control plane — up to
    the final checkpoint with :func:`restore_dataplane` (digest-verified
    bulk register load) + :func:`restore_control_plane`, and report the
    fidelity of the restored books."""
    import tempfile

    from repro.resilience import checkpoint
    from repro.resilience.chaos import _small_workload

    lines = []
    seed = _seeds(args.seed)[0]
    spec = _small_workload(seed).clone(histograms=True, forensics=True)

    with tempfile.TemporaryDirectory(prefix="repro-recover-") as tmp:
        directory = args.checkpoint_dir or tmp
        manager = checkpoint.install_manager(checkpoint.CheckpointManager(
            checkpoint.CheckpointStore(directory)))
        try:
            run = spec.build()
            manager.attach_dedup(run.scenario.archiver.dedup)
            cp = run.scenario.control_plane
            run.run()
            cp.stop()
            manager.capture(cp)       # the final, complete checkpoint
            doc = manager.store.latest()
        finally:
            checkpoint.uninstall_manager()
        lines.append(
            f"checkpointed run: seed={seed} captures={manager.captures} "
            f"store={directory} (retained {len(manager.store.paths())})")

        # The replacement world: nothing shared with the first run.
        run2 = spec.build()
        cp2 = run2.scenario.control_plane
        cp2.stop()
        digest = checkpoint.restore_dataplane(
            run2.scenario.monitor.program, doc)
        checkpoint.restore_control_plane(cp2, doc)
        lines.append(f"data plane restored: digest {digest[:16]}… verified")

        books = {
            "tracked flows": lambda c: len(c.flows),
            "active alerts": lambda c: len(c.alerts._active),
            "flow samples": lambda c: sum(map(len, c.flow_samples.values())),
            "aggregate samples": lambda c: len(c.aggregate_samples),
            "microbursts": lambda c: len(c.microbursts),
            "histogram ticks": lambda c: getattr(c.histograms, "ticks", 0),
            "forensics ticks": lambda c: getattr(c.forensics, "ticks", 0),
        }
        ok = True
        for label, count in books.items():
            restored, original = count(cp2), count(cp)
            ok &= restored == original
            lines.append(f"  {label}: restored={restored} original={original} "
                         f"[{'ok' if restored == original else 'MISMATCH'}]")
        lines.append("recover smoke: " + ("PASS" if ok else "FAIL"))
        args.failed |= not ok
    return "\n".join(lines)


# The verbs that are not a PAPER entry.
MODES: Dict[str, Callable] = {
    "stats": _stats,
    "watch": _watch,
    "histograms": _histograms,
    "forensics": _forensics,
    "validate": _validate,
    "trace": _trace,
    "profile": _profile,
    "chaos": _chaos,
    "recover": _recover,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate tables/figures from the perfSONAR+P4 paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*PAPER, "ablations", "all", *MODES],
        help="a paper table/figure/ablation, 'ablations', 'all', or a "
             "mode ('stats' runs an instrumented scenario and prints the "
             "telemetry snapshot; 'watch' adds the flight-recorder view)",
    )
    parser.add_argument("--duration", type=float, default=None,
                        help="workload duration in simulated seconds "
                             "(default: the paper run's, 40 for modes)")
    parser.add_argument("--join", type=float, default=None,
                        help="join time of the third flow (fig9/10/11, "
                             "histograms, forensics)")
    parser.add_argument("--seed", type=_seed_spec, default=7,
                        help="impairment RNG seed for stats/watch runs, the "
                             "tracer's sampling seed; validate/chaos also "
                             "accept an inclusive range like 0..9")
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale: a paper run's reduced "
                             "arguments, 20 s for the other modes")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level progress logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable self-telemetry and print a metrics "
                             "snapshot after the run")
    parser.add_argument("--telemetry-format",
                        choices=("table", "prom", "json"), default="table",
                        help="snapshot rendering (default: table)")
    parser.add_argument("--telemetry-out", metavar="FILE", default=None,
                        help="also write the snapshot to FILE")
    watch = parser.add_argument_group("flight recorder (watch mode)")
    watch.add_argument("--sample-interval", type=_positive, default=100.0,
                       metavar="MS",
                       help="sim-time sampling interval in milliseconds "
                            "(default: 100)")
    watch.add_argument("--retention", type=_retention, default=600,
                       help="raw telemetry documents kept per series in the "
                            "archive; older ticks fold into long-term "
                            "bucket means (default: 600)")
    watch.add_argument("--refresh", type=float, default=1.0,
                       metavar="SECONDS",
                       help="sim seconds between watch frames (default: 1)")
    watch.add_argument("--top", type=int, default=12,
                       help="series shown in the watch view (default: 12)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="enable provenance tracing for any experiment "
                             "and write the Perfetto JSON to FILE after the "
                             "run (see docs/observability.md)")
    parser.add_argument("--trace-sample", type=_unit_interval, metavar="RATE",
                        default=provenance.DEFAULT_SAMPLE_RATE,
                        help="coarse-window sampling rate in [0,1] "
                             "(default: 1/64)")
    trace = parser.add_argument_group(
        "provenance capture (trace mode, --trace-out)")
    trace.add_argument("--flow", type=_parse_flow, default=None,
                       metavar="5TUPLE",
                       help="fine-window filter: trace only this flow and "
                            "its reverse (ip:port->ip:port[/proto])")
    trace.add_argument("--packet", type=int, default=None, metavar="TRACE_ID",
                       help="fine-window filter: trace a single packet by "
                            "trace id")
    trace.add_argument("--trigger", default=None,
                       choices=("microburst", "alert", "loss-regression",
                                "oracle-mismatch"),
                       help="arm only this fine-window dump trigger "
                            "(default: all four)")
    trace.add_argument("--window", type=_window, default=8192,
                       metavar="EVENTS",
                       help="fine-window ring size in events (default: "
                            "8192)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output path: Perfetto JSON for trace mode "
                             "(default: trace.json), artifact prefix for "
                             "profile mode (default: profile), archived "
                             "report JSON for histograms/forensics modes")
    prof = parser.add_argument_group(
        "performance attribution (profile mode, --profile-out)")
    prof.add_argument("--mode", choices=("phase", "sample", "both"),
                      default="both",
                      help="phase-accounted wall time, sampling "
                           "flamegraph profiler, or both (default: both)")
    prof.add_argument("--sample-ms", type=_positive, default=5.0, metavar="MS",
                      help="stack-sampler interval in milliseconds "
                           "(default: 5)")
    prof.add_argument("--alloc", action="store_true",
                      help="capture a tracemalloc allocation snapshot "
                           "of the run (adds tracing overhead)")
    parser.add_argument("--profile-out", metavar="PREFIX", default=None,
                        help="enable the profiler around any experiment and "
                             "write its artifacts under PREFIX after the run "
                             "(PREFIX.phases.json, PREFIX.collapsed.txt)")
    validate = parser.add_argument_group("differential validation")
    validate.add_argument("--replay", metavar="ARTIFACT", default=None,
                          help="re-run one fuzz-failure artifact instead of "
                               "seeded scenarios")
    validate.add_argument("--corpus", metavar="DIR", default=None,
                          help="run every *.json artifact under DIR")
    validate.add_argument("--artifact-dir", metavar="DIR",
                          default="validation-artifacts",
                          help="where failing seeds' shrunk artifacts are "
                               "written (default: validation-artifacts)")
    validate.add_argument("--no-shrink", action="store_true",
                          help="skip shrinking failing scenarios")
    validate.add_argument("--compare-paths", action="store_true",
                          help="run each seed through BOTH monitor hot "
                               "paths (batched kernel and scalar "
                               "per-packet) and differential-compare "
                               "state digests, register arrays, report "
                               "streams and oracle verdicts")
    chaos = parser.add_argument_group("fault injection (chaos mode)")
    chaos.add_argument("--schedule", metavar="NAME_OR_FILE", default=None,
                       help="a bundled schedule name (archiver-outage, "
                            "slow-drain, lossy-transport, cp-stall-skew, "
                            "kitchen-sink), a fault-schedule JSON file, or "
                            "a failed-run artifact to replay; default: "
                            "every bundled schedule plus a seed-derived run")
    chaos.add_argument("--crash", action="store_true",
                       help="kill the control plane mid-run (a cp_crash "
                            "window is appended if the schedule lacks one) "
                            "and recover it from checkpoints under the "
                            "supervisor; settles the recovery books on top "
                            "of the usual chaos invariants")
    chaos.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="where --crash (and the recover mode) keeps "
                            "checkpoint files (default: a temp directory)")
    return parser


def _render_snapshot(args) -> str:
    snap = telemetry.snapshot()
    if args.telemetry_format == "prom":
        rendered = telemetry.to_prometheus_text(snap)
    elif args.telemetry_format == "json":
        rendered = telemetry.to_json(snap)
    else:
        rendered = telemetry.render_table(snap)
    if args.telemetry_out:
        try:
            with open(args.telemetry_out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            # The snapshot still goes to stdout; flag the failed write.
            log.error("cannot write telemetry snapshot to %s: %s",
                      args.telemetry_out, exc)
            args.failed = True
        else:
            log.info("telemetry snapshot written to %s", args.telemetry_out)
    return rendered


def _section(title: str) -> None:
    print(f"\n{'=' * 70}\n  {title}\n{'=' * 70}")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """The command line, checked: a misuse exits 2 before anything runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.runs = _runs(args)
    for flag, param in RUN_FLAGS.items():
        # A flag given lands in the arguments of each run that takes it.
        if getattr(args, flag) is not None and args.runs and not any(
                param in kwargs for kwargs in args.runs.values()):
            parser.error(f"{args.experiment} takes no --{flag}: no run of "
                         f"{', '.join(args.runs)} has a {param} parameter")
    if (args.experiment == "chaos" and args.checkpoint_dir is not None
            and not args.crash):
        parser.error("chaos --checkpoint-dir needs --crash: a run without "
                     "a cp_crash window writes no checkpoints")
    if not args.runs and args.duration is None:
        args.duration = QUICK_DURATION_S if args.quick else MODE_DURATION_S
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    args.failed = False  # any mode may set it: exit status 1
    level = logging.WARNING if args.quiet else (
        logging.DEBUG if args.verbose else logging.INFO)
    configure_logging(level)
    mode = args.experiment
    names = [mode] if mode in MODES else list(args.runs)

    # The one capture block: every observer is switched on here, from
    # every flag that configures it, whatever the experiment.  The modes
    # whose result *is* a capture only bring a default output path.
    snapshot_is_result = mode in ("stats", "watch")
    if args.telemetry or snapshot_is_result:
        telemetry.enable()
    # A machine-format snapshot is the whole of stdout: the section
    # banners and the profile table are for a reader, not a parser.
    banners = not (mode == "stats" and args.telemetry_format != "table")
    trace_out, profile_out = args.trace_out, args.profile_out
    if mode == "trace":
        trace_out = args.out or "trace.json"
    elif mode == "profile":
        profile_out = args.out or "profile"
    tracer = prof = None
    if trace_out is not None:
        tracer = provenance.enable(
            fine_window=args.window, sample_rate=args.trace_sample,
            flow=args.flow, packet=args.packet,
            triggers=(args.trigger,) if args.trigger else provenance.TRIGGERS,
            seed=args.seed if isinstance(args.seed, int) else 1)
    if profile_out is not None:
        # After provenance, so slow phase frames ride the shared Perfetto
        # span log.  'profile' opens the profiled window around its run
        # alone and prints the table as its result.
        prof = profiling.enable(mode=args.mode,
                                sample_interval_s=args.sample_ms / 1e3,
                                alloc=args.alloc)
        if mode != "profile":
            prof.start()
    try:
        for name in names:
            log.info("running %s", name)
            if banners:
                _section(name)
            print(MODES[name](args) if name in MODES else _paper(args, name))
        if prof is not None:
            prof.stop()
            if mode != "profile" and banners:
                _section("profile")
                print(_profile_summary(prof, top=16))
            _export_profile(prof, profile_out)
        if tracer is not None:
            doc = traceviz.write_perfetto(trace_out, tracer)
            log.info("provenance trace (%d entries, %d dumps) written to %s "
                     "— load at https://ui.perfetto.dev",
                     len(doc["traceEvents"]), len(tracer.dumps), trace_out)
    finally:
        profiling.disable()
        provenance.disable()
    if args.telemetry and not snapshot_is_result:
        _section("telemetry")
        print(_render_snapshot(args))
    return 1 if args.failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
