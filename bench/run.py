#!/usr/bin/env python3
"""Run the repo benchmark.

One measured run, as the driver invokes it (contract: BENCHMARK.json)::

    python3 bench/run.py --workload dmz_bulk --seed 1 --seconds 14 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
and ends with one JSON object on the last line of stdout.

The whole suite, for people::

    python3 bench/run.py --seed 1            # or: PYTHONPATH=src python -m bench.run --seed 1

runs every workload's untraced and traced run one after another, each in
its own fresh single-threaded subprocess (never two at once), and prints
all metrics by name with their units.  ``--workload`` and ``--reps``
select subsets for local use; ``--aa`` runs the suite twice and compares;
``--smoke`` shrinks every workload ~20x; ``--write-baseline`` records the
numbers in bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):  # `repro` and `bench`, from a bare checkout
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    from bench import layers, workloads  # noqa: E402  (needs the path above)
except ModuleNotFoundError as exc:  # e.g. a directory holding only bench/
    sys.exit(f"bench: {exc} -- nothing to measure without src/repro beside bench/")

SETUP_PROBES = 5
MIN_REPS = 3
PER_ITEM = (  # name, layers whose traced self time it divides, count, scale
    ("netsim.engine.ns_per_event", ("netsim.engine",), "netsim.engine.events", 1e9),
    ("netsim.link.ns_per_packet", ("netsim.link",), "netsim.link.tx_packets", 1e9),
    ("netsim.tap.ns_per_copy", ("netsim.tap",), "netsim.tap.copies", 1e9),
    ("core.batch.ns_per_copy", ("core.batch",), "netsim.tap.copies", 1e9),
    ("p4.ns_per_copy", ("p4", "core.stages"), "netsim.tap.copies", 1e9),
    ("core.control_plane.us_per_report", ("core.control_plane",),
     "core.control_plane.reports_shipped", 1e6),
    ("perfsonar.logstash.us_per_event", ("perfsonar.logstash",),
     "perfsonar.logstash.events_in", 1e6),
    ("perfsonar.archive.us_per_doc", ("perfsonar.archive",),
     "perfsonar.archive.docs_written", 1e6),
)
TRACED_COSTS = {item[0] for item in PER_ITEM}  # the tracer inflates these


def declared() -> dict:
    with open(os.path.join(layers.REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one measured run (what the driver calls) --------------------------------


def _timed(wl, inp, profile: Optional[cProfile.Profile] = None):
    """Build untimed, then time the run phase only."""
    gc.collect()
    sut = wl.build(inp)
    if profile is not None:
        profile.enable()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    wl.run(sut, inp)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if profile is not None:
        profile.disable()
    return sut, wall, cpu


def _probe_setup(name: str) -> float:
    """Cold start a user pays per CLI run: a fresh interpreter imports
    ``repro`` and constructs the workload's system under test."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", name]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _end_to_end(wl, inp, seconds: float, reps: Optional[int]):
    """Timed repetitions: at least ``MIN_REPS`` (or exactly ``reps``), and
    on while another one still fits in ``seconds``.
    -> (last system under test, digests, metric values, per-repetition detail)"""
    walls: List[float] = []
    cpus: List[float] = []
    digests = []
    while (len(walls) < (reps or MIN_REPS)
           or (reps is None and sum(walls) + statistics.median(walls) <= seconds)):
        sut = None  # one system under test alive at a time
        sut, wall, cpu = _timed(wl, inp)
        walls.append(wall)
        cpus.append(cpu)
        digests.append(workloads.digest(sut))
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        # read before the check run, whose oracle would dominate it
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return sut, digests, values, {"wall_s": walls, "cpu_s": cpus}


def _per_layer(wl, inp):
    """One plain run for the exact counts, then one run under an external
    tracer (``cProfile`` around exactly the timed region) folded by layer.
    -> (last system under test, digests, metric values, detail)"""
    sut, plain_wall, _ = _timed(wl, inp)
    exact = workloads.counts(sut)
    digests = [workloads.digest(sut)]
    sut = None  # one system under test alive at a time
    profile = cProfile.Profile(builtins=False)
    sut, traced_wall, _ = _timed(wl, inp, profile)
    digests.append(workloads.digest(sut))

    self_s, calls, flushes = layers.fold(profile)
    total = sum(self_s.values())
    values: Dict[str, float] = dict(exact)
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.share"] = self_s[layer] / total
        values[f"{layer}.calls"] = calls[layer]
    values["core.batch.flushes"] = flushes
    values["core.batch.copies_per_flush"] = (
        exact["netsim.tap.copies"] / flushes if flushes else 0.0)
    for metric, over, count, scale in PER_ITEM:
        spent = sum(self_s[layer] for layer in over)
        values[metric] = scale * spent / exact[count] if exact[count] else 0.0
    values["trace.overhead_x"] = traced_wall / plain_wall
    values["trace.coverage"] = total / traced_wall
    return sut, digests, values, {"plain_wall_s": plain_wall,
                                  "traced_wall_s": traced_wall}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reps: Optional[int] = None, smoke: bool = False
                 ) -> Tuple[dict, dict]:
    """One measured run -> (the contract's result object, details for
    people and ``--aa``).  ``smoke`` shrinks the input and runs once."""
    wl = workloads.WORKLOADS[name]
    units = {m["name"]: m["unit"]
             for m in declared()["per_layer" if trace else "end_to_end"]}
    if smoke:
        reps = 1

    probes = []
    if not trace:  # before anything large lives in this process
        probes = [_probe_setup(name) for _ in range(1 if smoke else SETUP_PROBES)]

    t0 = time.perf_counter()
    inp = wl.generate(seed, smoke)
    gen_s = time.perf_counter() - t0

    if not smoke:  # warm the interpreter on a small input
        small = wl.generate(seed, True)
        wl.run(wl.build(small), small)
        del small

    if trace:
        sut, digests, values, detail = _per_layer(wl, inp)
    else:
        sut, digests, values, detail = _end_to_end(wl, inp, seconds, reps)

    # The checks come last: the oracle doubles the heap, which would show
    # in peak_rss_mb and slows whatever runs after it.
    checked, attempted, failed, rtt_err_pct = wl.check(inp, sut)
    if checked is not sut:
        digests.append(workloads.digest(checked))
    del sut, checked
    # Determinism gate: every run of one input must reproduce the first
    # one's simulated results (dmz_observed's check run is the batched
    # path, so this is also its batched-vs-scalar equivalence check).
    attempted += len(digests) - 1
    failed += sum(d != digests[0] for d in digests[1:])

    if trace:
        values["core.stages.rtt_err_pct"] = rtt_err_pct
        values["harness.gen_s"] = gen_s
    else:
        values["setup_s"] = statistics.median(probes)
        detail["setup_s"] = probes
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    detail.update(workload=name, seed=seed, trace=int(trace), gen_s=gen_s,
                  digest=digests[0], rtt_err_pct=rtt_err_pct)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, detail


def _spread(values: List[float]) -> str:
    return f"(n={len(values)} min {min(values):.4f} max {max(values):.4f})"


def print_run(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"trace {detail['trace']}  digest {detail['digest'][:16]}")
    for name, m in result["metrics"].items():
        beside = _spread(detail[name]) if isinstance(detail.get(name), list) else ""
        traced = "  traced" if name in TRACED_COSTS else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s}{traced} {beside}")
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.4f}); "
          f"rtt_err_pct {detail['rtt_err_pct']:.4f} %")


# -- the suite (what people call) --------------------------------------------


def _measure(name: str, args, trace: int) -> Tuple[dict, dict]:
    """One measured run in a fresh subprocess, which isolates peak RSS
    and the process-global telemetry switch (smoke runs stay in-process:
    they measure nothing worth isolating)."""
    if args.smoke:
        result, detail = run_workload(name, args.seed, args.seconds, bool(trace),
                                      smoke=True)
        print_run(result, detail)
        return result, detail
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.reps is not None:
        cmd += ["--reps", str(args.reps)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.splitlines()
    print("\n".join(lines[:-2]), flush=True)
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def run_suite(args) -> Dict[str, dict]:
    """Every selected workload, untraced then traced, one process at a time."""
    suite = {}
    for name in args.workload or [w["name"] for w in declared()["workloads"]]:
        plain, plain_detail = _measure(name, args, 0)
        traced, traced_detail = _measure(name, args, 1)
        suite[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "digest": plain_detail["digest"],
            "digest_traced": traced_detail["digest"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "repetitions": {k: plain_detail[k] for k in ("setup_s", "wall_s", "cpu_s")},
        }
    return suite


def _is_exact(name: str) -> bool:
    """Per-layer metrics that are not clock readings: exact counts, which
    must repeat exactly for one seed."""
    return not (name.endswith((".self_s", ".share")) or name in TRACED_COSTS
                or name in ("trace.overhead_x", "trace.coverage", "harness.gen_s"))


def compare_aa(first: Dict[str, dict], second: Dict[str, dict]) -> int:
    """Two sets of runs of the same code: medians within each metric's
    bound, every exact count and digest identical."""
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    bad = 0
    print("\nA/A  workload        metric             first      second   ratio   bound")
    for name in first:
        a, b = first[name], second[name]
        for metric, spec in bounds.items():
            x, y = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            ok = max(y / x, x / y) <= 1.0 + spec["bound"]
            bad += not ok
            print(f"     {name:15s} {metric:12s} {x:11.4f} {y:11.4f} {y / x:7.4f} "
                  f"{spec['bound']:7.2f} {'' if ok else ' DISAGREE'}")
        moved = [m for m in a["per_layer"] if _is_exact(m)
                 and a["per_layer"][m]["value"] != b["per_layer"][m]["value"]]
        if a["digest"] != b["digest"] or a["digest_traced"] != b["digest_traced"]:
            moved.append("digest")
        bad += len(moved)
        print(f"     {name:15s} exact counts and digest: "
              f"{'identical' if not moved else 'DIFFER ' + ', '.join(moved)}")
    return bad


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable in suite mode)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed budget per run: repetitions continue while "
                         f"another one fits (at least {MIN_REPS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="one measured run: 0 end-to-end metrics, 1 per-layer")
    ap.add_argument("--reps", type=int, default=None, help="fixed repetition count")
    ap.add_argument("--smoke", action="store_true", help="~1/20 size")
    ap.add_argument("--aa", action="store_true", help="run the suite twice and compare")
    ap.add_argument("--write-baseline", action="store_true",
                    help="record the suite's numbers in bench/BASELINE.json")
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])

    if args.probe_setup:
        workloads.WORKLOADS[args.probe_setup].setup()
        return 0

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        result, detail = run_workload(args.workload[0], args.seed, args.seconds,
                                      bool(args.trace), args.reps, args.smoke)
        print_run(result, detail)
        print("detail " + json.dumps(detail))
        print(json.dumps(result))
        return 0

    suite = run_suite(args)
    failed = sum(not w["correct"] for w in suite.values())
    if args.aa:
        failed += compare_aa(suite, run_suite(args))
    if args.write_baseline:
        with open(os.path.join(layers.BENCH_DIR, "BASELINE.json"), "w") as fh:
            json.dump({"host": host(), "seed": args.seed, "workloads": suite},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"\n{len(suite)} workloads, {failed} failures; {host()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
