"""Experiment-runner CLI."""

import functools
import json

import pytest

from repro import telemetry
from repro.cli import MODES, build_parser, main, parse_args
from repro.experiments.claims import Claim
from repro.experiments.paper import PAPER


@pytest.fixture
def clean_telemetry():
    """stats/watch enable the process-global telemetry switch; leave the
    process dark afterwards so later tests build uninstrumented components."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def test_parser_accepts_known_experiments():
    parser = build_parser()
    for name in [*PAPER, "ablations", "all", *MODES]:
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


@pytest.fixture
def recorded_runs(monkeypatch):
    """Every PAPER run replaced by one that records ``(name, kwargs)``
    and renders a stub; the real run's signature is kept, so the CLI
    still decides which flags it takes."""
    calls = []
    for name, experiment in PAPER.items():
        @functools.wraps(experiment.run)
        def run(*args, _name=name, **kwargs):
            assert not args
            calls.append((_name, kwargs))
            return _name

        monkeypatch.setitem(PAPER, name, experiment._replace(
            run=run, claims=lambda result: [],
            render=lambda result: f"rendered {result}"))
    return calls


def test_quick_flag_caps_duration(recorded_runs):
    """--quick is the reduced scale: a paper verb runs with its
    ``reduced`` arguments, the other modes run 20 s instead of 40 s."""
    assert main(["fig9", "-q"]) == 0
    assert main(["fig9", "--quick", "-q"]) == 0
    assert recorded_runs == [("fig9", {}), ("fig9", PAPER["fig9"].reduced)]
    assert parse_args(["stats"]).duration == 40.0
    assert parse_args(["stats", "--quick"]).duration == 20.0
    assert parse_args(["stats", "--quick", "--duration", "3"]).duration == 3.0


@pytest.mark.parametrize("name", PAPER)
def test_quick_passes_the_reduced_arguments(name, recorded_runs, capsys):
    assert main([name, "--quick", "-q"]) == 0
    assert recorded_runs == [(name, PAPER[name].reduced)]
    assert f"rendered {name}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, kwargs", [
    (["fig9", "--quick", "--duration", "100"],
     dict(PAPER["fig9"].reduced, duration_s=100.0)),
    (["fig11", "--quick", "--join", "3"],
     dict(PAPER["fig11"].reduced, join_s=3.0)),
    (["fig13", "--duration", "5"], {"duration_s": 5.0}),
    (["fig14", "--duration", "5"], {"duration_s": 5.0}),
    (["table1", "--duration", "30"], {"duration_s": 30.0}),
    (["fig10", "--duration", "30", "--join", "9"],
     {"duration_s": 30.0, "join_s": 9.0}),
])
def test_an_explicit_flag_reaches_the_run(argv, kwargs, recorded_runs):
    assert main(argv + ["-q"]) == 0
    assert recorded_runs == [(argv[0], kwargs)]


def test_all_runs_the_table_in_order(recorded_runs):
    assert main(["all", "-q", "--duration", "5"]) == 0
    assert [name for name, _ in recorded_runs] == list(PAPER)
    # --duration reaches the runs that take it and only those.
    assert ("ablation_cms", {}) in recorded_runs
    assert ("fig9", {"duration_s": 5.0}) in recorded_runs


def test_ablations_runs_the_six_ablations(recorded_runs):
    assert main(["ablations", "-q"]) == 0
    assert recorded_runs == [(name, {}) for name in (
        "ablation_cms", "ablation_eack", "ablation_sampling",
        "ablation_boost", "ablation_int", "ablation_cca")]


@pytest.mark.parametrize("argv", [
    ["fig12", "--join", "3"],
    ["fig13", "--join", "3"],
    ["table1", "--join", "3"],
    ["ablation_cms", "--duration", "5"],
    ["ablations", "--join", "3"],
])
def test_a_flag_no_selected_run_takes_is_a_usage_error(argv, recorded_runs,
                                                       capsys):
    # It used to be dropped: the run went ahead as if it were absent.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[1] in err
    assert recorded_runs == []


def test_a_verb_prints_the_render_of_its_full_scale_run(capsys):
    experiment = PAPER["ablation_sampling"]
    assert main(["ablation_sampling", "-q"]) == 0
    assert experiment.render(experiment.run()) in capsys.readouterr().out


def test_a_failed_claim_fails_the_verb(monkeypatch, capsys):
    # It used to exit 0 with a NO row in the claims table.
    name = "ablation_sampling"
    monkeypatch.setitem(PAPER, name, PAPER[name]._replace(
        claims=lambda result: [Claim("forced", 0.0, "> 1", False)]))
    assert main([name, "-q"]) == 1
    assert "data plane (per packet)" in capsys.readouterr().out


def test_main_runs_fig13(capsys):
    rc = main(["fig13"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig13" in out
    assert "inflation" in out


def test_main_runs_fig12_quick(capsys):
    rc = main(["fig12", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict" in out


def test_stats_honours_duration_and_seed(clean_telemetry, capsys):
    """`stats` no longer caps the run at a hard-coded 10 s; --duration and
    --seed flow through, and output follows --telemetry-format: a
    machine format is the whole of stdout, no banner around it."""
    rc = main(["stats", "--duration", "3", "--seed", "11",
               "--telemetry-format", "json"])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    names = {m["name"] for m in snap["metrics"]}
    assert "repro_netsim_events_total" in names
    assert "repro_cp_active_alerts" in names


def test_stats_prom_stdout_is_pure_exposition(clean_telemetry, capsys):
    """Regression: the ==== banner used to precede the exposition text,
    so piping `stats --telemetry-format prom` into a textfile scrape
    started with three unparseable lines."""
    import re

    rc = main(["stats", "--duration", "2", "--telemetry-format", "prom"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$')
    bad = [ln for ln in lines
           if ln and not ln.startswith("#") and not sample.match(ln)]
    assert not bad, bad[:3]
    assert any(ln.startswith("repro_netsim_events_total") for ln in lines)


@pytest.mark.parametrize("argv", [
    ["watch", "--sample-interval", "0"],     # used to spin on a 1 ns tick
    ["watch", "--retention", "0"],
    ["watch", "--retention", "3"],
    ["stats", "--profile-out", "P", "--mode", "sample", "--sample-ms", "0"],
    ["stats", "--trace-out", "F", "--trace-sample", "2.5"],
    ["trace", "--window", "-1"],
    ["watch", "--sample-interval", "nan"],
])
def test_observer_flags_are_validated_at_parse_time(argv, capsys):
    """Out-of-range observer flags exit 2 with a usage line instead of a
    constructor traceback (or, for the sampler interval, a hang)."""
    import time

    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert time.perf_counter() - t0 < 1.0
    assert "usage:" in capsys.readouterr().err


def test_stats_duration_not_capped():
    """The old implementation clamped to min(duration, 10); the parser
    value must now reach the scenario untouched."""
    args = build_parser().parse_args(["stats", "--duration", "25"])
    assert args.duration == 25.0
    assert args.seed == 7  # default


def test_watch_prints_flight_recorder_frames(clean_telemetry, capsys):
    rc = main(["watch", "--duration", "2", "--refresh", "0.5",
               "--sample-interval", "100", "--retention", "64", "--top", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("flight recorder") >= 2  # frames during run + final
    assert "delta trend" in out
    assert "alerts:" in out
    assert "archived" in out and "repro_telemetry" in out


# -- performance-attribution profiler (docs/profiling.md) ---------------------


@pytest.fixture
def clean_profiling():
    from repro.telemetry import profiling

    profiling.reset()
    yield
    profiling.reset()


def test_profile_experiment_writes_artifacts(clean_profiling, tmp_path, capsys):
    out = tmp_path / "prof"
    rc = main(["profile", "--quick", "--seed", "3", "--duration", "2",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p4.process" in text          # block phase table printed
    assert "p4.parser" not in text and "p4.stage/" not in text
    assert "accounted" in text

    from repro.telemetry.profviz import load_collapsed

    phases = json.loads((tmp_path / "prof.phases.json").read_text())
    assert phases["schema"] == "repro-profile-v1"
    names = {r["phase"] for r in phases["phases"]}
    assert any(n.startswith("engine/") for n in names)
    assert "p4.process" in names
    stacks = load_collapsed(tmp_path / "prof.collapsed.txt")
    assert stacks
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "prof.collapsed.txt", "prof.phases.json"]


def test_profile_experiment_observes_the_product_path(clean_profiling,
                                                      monkeypatch, tmp_path,
                                                      capsys):
    """The verb profiles what bench/ measures: the monitor it builds
    keeps its kernel, and every TAP copy is one `p4.process` event."""
    import re

    import repro.cli

    built = _capture_built(monkeypatch, repro.cli, "_instrumented_scenario")
    rc = main(["profile", "--quick", "--duration", "2", "--mode", "phase",
               "--out", str(tmp_path / "prof")])
    assert rc == 0
    (scenario,) = built
    assert scenario.monitor.kernel is not None
    text = capsys.readouterr().out
    events = int(re.search(r"^p4\.process\s+(\d+)", text, re.M).group(1))
    copies = int(re.search(r"p4\.tap_copies=(\d+)", text).group(1))
    assert events == copies > 0


def test_profile_mode_phase_skips_sampler(clean_profiling, tmp_path, capsys):
    out = tmp_path / "prof"
    rc = main(["profile", "--quick", "--seed", "3", "--duration", "2",
               "--mode", "phase", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "prof.phases.json").exists()
    assert not (tmp_path / "prof.collapsed.txt").exists()


def test_global_profile_out_wraps_any_experiment(clean_profiling, tmp_path,
                                                 capsys):
    out = tmp_path / "fig13prof"
    rc = main(["fig13", "--profile-out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fig13" in text
    phases = json.loads((tmp_path / "fig13prof.phases.json").read_text())
    assert phases["phases"], "no phases attributed"
    assert (tmp_path / "fig13prof.collapsed.txt").exists()
    # after main() returns the profiler must be torn down
    from repro.telemetry import profiling

    assert not profiling.active()


def test_watch_header_reports_scheduler_stats(clean_telemetry, capsys):
    rc = main(["watch", "--duration", "2", "--refresh", "0.5",
               "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "queue-hwm=" in out
    assert "pending=" in out


# -- artifact-writing experiments (what CI's trace-, histogram- and
# forensics-smoke jobs ran; their assertions, verbatim) -------------------------


def _check_trace(path):
    from repro.telemetry.traceviz import events_from_perfetto

    doc = json.load(open(path))
    events = events_from_perfetto(doc)
    assert events, "no provenance events captured"
    layers = {ev.layer for ev in events}
    assert {"netsim", "p4", "register"} <= layers, layers


def _check_histograms(path):
    docs = json.load(open(path))
    assert docs, "no repro-histogram-v1 documents archived"
    assert all(d["type"] == "repro-histogram-v1" for d in docs)
    scopes = {(d["metric"], d["scope"]) for d in docs}
    assert {("rtt", "flow"), ("rtt", "all"),
            ("queue_depth", "port")} <= scopes, scopes
    for d in docs:
        assert len(d["counts"]) == len(d["edges_ns"]) + 1
        assert sum(d["counts"]) == d["count"] > 0
        assert d["p50_ms"] <= d["p90_ms"] <= d["p99_ms"] <= d["p999_ms"]


def _check_forensics(path):
    docs = json.load(open(path))
    assert docs, "no repro-forensics-v1 documents archived"
    assert all(d["type"] == "repro-forensics-v1" for d in docs)
    assert any(d["trigger"] == "microburst" for d in docs)
    for d in docs:
        assert d["t0_ns"] < d["t1_ns"]
        assert d["total_bytes"] > 0 and d["windows"] >= 1
        assert d["culprits"], "unsuppressed report without a ranking"
        shares = [c["share"] for c in d["culprits"]]
        assert shares == sorted(shares, reverse=True)
        for c in d["culprits"]:
            assert c["bytes"] > 0 and 0.0 <= c["share"] <= 1.0


@pytest.mark.parametrize("experiment, out_flag, check", [
    pytest.param("fig11", "--trace-out", _check_trace, id="trace"),
    pytest.param("histograms", "--out", _check_histograms, id="histograms"),
    pytest.param("forensics", "--out", _check_forensics, id="forensics"),
])
def test_quick_run_writes_a_well_formed_artifact(experiment, out_flag, check,
                                                 clean_telemetry, tmp_path,
                                                 capsys):
    out = tmp_path / f"{experiment}.json"
    rc = main([experiment, "--quick", "-q", out_flag, str(out)])
    assert rc == 0
    check(out)
    from repro.telemetry import provenance

    assert provenance.tracer() is None, "--trace-out must tear the tracer down"


# -- crash recovery through the CLI -------------------------------------------


def test_recover_restores_a_cold_start_from_the_final_checkpoint(capsys):
    assert main(["recover", "-q"]) == 0


def test_chaos_checkpoint_dir_without_crash_is_a_usage_error(tmp_path, capsys):
    # Only a crash run checkpoints; the flag used to be silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "-q", "--schedule", "archiver-outage",
              "--checkpoint-dir", str(tmp_path / "cp")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--crash" in err
    assert not (tmp_path / "cp").exists()


def test_crash_chaos_leaves_well_formed_checkpoints_on_disk(tmp_path, capsys):
    from repro.resilience.checkpoint import CheckpointStore, content_digest

    checkpoints = tmp_path / "recovery-checkpoints"
    rc = main(["chaos", "-q", "--crash", "--schedule", "archiver-outage",
               "--checkpoint-dir", str(checkpoints),
               "--artifact-dir", str(tmp_path / "chaos-artifacts")])
    assert rc == 0
    store = CheckpointStore(str(checkpoints))
    paths = store.paths()
    assert paths, "no checkpoints written by the crash runs"
    doc = store.latest()
    assert doc is not None, "every checkpoint on disk is unreadable"
    assert doc["schema"] == "repro-checkpoint-v1"
    assert doc["digest"] == content_digest(doc)
    for key in ("dataplane_digest", "control_plane", "shipper", "seq"):
        assert key in doc, f"checkpoint missing {key!r}"


# -- one enable site per observer: every flag reaches it from any experiment ---


def _capture_built(monkeypatch, module, name="enable"):
    """Wrap ``module.<name>`` so what main() builds through it (an
    observer, a scenario) can be inspected after main() has returned."""
    built = []
    real = getattr(module, name)

    def build(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, name, build)
    return built


def test_tracer_flags_reach_the_tracer_under_trace_out(monkeypatch, tmp_path,
                                                       capsys):
    from repro.telemetry import provenance

    built = _capture_built(monkeypatch, provenance)
    rc = main(["fig13", "-q", "--trace-out", str(tmp_path / "t.json"),
               "--trigger", "alert", "--seed", "11"])
    assert rc == 0
    (tracer,) = built
    assert tracer.armed == {"alert"}
    assert tracer.seed == 11
    assert provenance.tracer() is None


def test_profiler_flags_reach_the_profiler_under_profile_out(
        clean_profiling, monkeypatch, tmp_path, capsys):
    from repro.telemetry import profiling

    built = _capture_built(monkeypatch, profiling)
    out = tmp_path / "p"
    rc = main(["fig13", "-q", "--profile-out", str(out),
               "--mode", "phase", "--alloc"])
    assert rc == 0
    (prof,) = built
    assert prof.sampler is None and prof.alloc
    assert (tmp_path / "p.phases.json").exists()
    assert not (tmp_path / "p.collapsed.txt").exists()
    assert "top allocation sites" in capsys.readouterr().out


# -- the documented command lines still parse ----------------------------------


def _documented_commands():
    """Every ``repro-experiments ...`` / ``python -m repro.cli ...`` line
    in a fenced block of README.md or docs/*.md, or in a ``run:`` step
    of ci.yml, as ``(where, argv)``."""
    import re
    import shlex
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    start = re.compile(r"^\s*\$?\s*(?:PYTHONPATH=\S+\s+)?"
                       r"(?:repro-experiments|python -m repro\.cli)\s+(.*)$")
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md")),
                 root / ".github" / "workflows" / "ci.yml"]:
        lines = path.read_text().splitlines()
        fenced = path.suffix == ".yml"   # a yml file is all "code"
        i = 0
        while i < len(lines):
            line = lines[i]
            i += 1
            if path.suffix == ".md" and line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            match = start.match(line) if fenced else None
            if match is None:
                continue
            where, text = f"{path.name}:{i}", match.group(1)
            # Continuations: a trailing backslash (markdown) or the
            # option lines of a folded yml scalar.
            while i < len(lines) and (
                    text.endswith("\\")
                    or (path.suffix == ".yml"
                        and lines[i].lstrip().startswith("--"))):
                text = text.rstrip("\\") + " " + lines[i].strip()
                i += 1
            text = re.sub(r"\$\{\{.*?\}\}", "0..3", text)   # CI seed ranges
            yield where, shlex.split(text, comments=True)


def test_every_documented_command_line_parses():
    commands = list(_documented_commands())
    assert len(commands) >= 30, "the scan found too little to mean anything"
    for where, argv in commands:
        try:
            parse_args(argv)   # main()'s usage checks included
        except SystemExit:
            pytest.fail(f"{where}: does not parse: {' '.join(argv)}")
