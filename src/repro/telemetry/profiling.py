"""Performance-attribution profiler: phase accounting + stack sampling.

The repo benchmark (``bench/run.py``) says *that* a run got slower;
this module says *where*.  It has two independent modes, selectable at
:func:`enable` time:

- **phase** — wall time attributed to simulator phases: every event the
  engine dispatches is charged to ``engine/<callback>`` (one
  ``perf_counter_ns`` per event, timestamps chained so the loop pays a
  single clock read), and instrumented subsystems open explicit phase
  frames (``p4.process``, ``cp.extract/<metric>``, ``logstash.process``,
  ``archiver.sink``, ...).  Frames nest through a stack, so every phase
  accumulates both **cumulative** time (with children) and **self** time
  (children subtracted) plus an event count — the numbers a refactor is
  judged against (docs/profiling.md).
- **sample** — a background-thread stack sampler over
  ``sys._current_frames()`` with collapsed-stacks export
  (:mod:`repro.telemetry.profviz`), plus tracemalloc-backed
  allocation snapshots and GC-pause counters for the allocation half of
  the performance story.

Like :mod:`repro.telemetry` and :mod:`~repro.telemetry.provenance`, the
subsystem is **off by default and binds at construction time**:
instrumented components cache :func:`profiler` (``None`` when disabled)
once, so the disabled hot path costs at most a single ``is None`` test
(the pipeline none: tests/p4/test_pipeline_binding.py), and
``benchmarks/test_profiling_overhead.py`` holds the default phase mode
to a per-dispatched-event cost end to end.

Phase accounting runs from :func:`enable`; :meth:`Profiler.start` /
:meth:`Profiler.stop` bound the wall-time window and the sampler /
GC / allocation capture.  When provenance tracing is live at
:func:`enable` time, slow phase frames also land on the Perfetto span
track (PR 4's export), so packets and profile share one timeline.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.telemetry import hooks

__all__ = [
    "Profiler",
    "PhaseRow",
    "PhaseReport",
    "StackSampler",
    "MODES",
    "enable",
    "disable",
    "active",
    "profiler",
    "reset",
]

MODES = ("phase", "sample", "both")

DEFAULT_SAMPLE_INTERVAL_S = 0.005
_pcn = time.perf_counter_ns  # one LOAD_GLOBAL instead of two LOAD_ATTRs
#: Phase frames at least this slow (wall ns) are exported as Perfetto
#: spans when provenance tracing shares its span log.
DEFAULT_SPAN_MIN_WALL_NS = 200_000
_MAX_STACK_DEPTH = 96


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.3f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{int(ns)}ns"


class PhaseRow(NamedTuple):
    """One phase's accounting: ``self_ns`` excludes nested phases,
    ``cum_ns`` includes them, ``count`` is dispatches/frames."""

    phase: str
    count: int
    self_ns: int
    cum_ns: int

    @property
    def ns_per_event(self) -> float:
        return self.cum_ns / self.count if self.count else 0.0


class PhaseReport:
    """A run's phase attribution, ready to render or persist."""

    def __init__(self, rows: List[PhaseRow], wall_ns: int,
                 sources: Dict[str, int], gc_pauses: int, gc_pause_ns: int,
                 sample_count: int = 0,
                 alloc_top: Optional[List[dict]] = None) -> None:
        self.rows = sorted(rows, key=lambda r: r.self_ns, reverse=True)
        self.wall_ns = wall_ns
        self.sources = sources
        self.gc_pauses = gc_pauses
        self.gc_pause_ns = gc_pause_ns
        self.sample_count = sample_count
        self.alloc_top = alloc_top or []

    @property
    def total_self_ns(self) -> int:
        return sum(r.self_ns for r in self.rows)

    def row(self, phase: str) -> Optional[PhaseRow]:
        for r in self.rows:
            if r.phase == phase:
                return r
        return None

    def to_dict(self) -> dict:
        return {
            "schema": "repro-profile-v1",
            "wall_ns": self.wall_ns,
            "total_self_ns": self.total_self_ns,
            "phases": [r._asdict() for r in self.rows],
            "sources": dict(self.sources),
            "gc": {"pauses": self.gc_pauses, "pause_ns": self.gc_pause_ns},
            "sample_count": self.sample_count,
            "alloc_top": list(self.alloc_top),
        }

    def render_table(self, top: Optional[int] = None) -> str:
        total = self.total_self_ns or 1
        heads = ("phase", "events", "self", "cum", "ns/event", "self%")
        rows = []
        for r in self.rows[:top]:
            rows.append((r.phase, f"{r.count}", _fmt_ns(r.self_ns),
                         _fmt_ns(r.cum_ns), _fmt_ns(r.ns_per_event),
                         f"{100.0 * r.self_ns / total:.1f}"))
        widths = [max(len(heads[i]), *(len(row[i]) for row in rows))
                  if rows else len(heads[i]) for i in range(6)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(heads))]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(6)))
        accounted = _fmt_ns(self.total_self_ns)
        wall = _fmt_ns(self.wall_ns) if self.wall_ns else "?"
        lines.append(f"accounted {accounted} across {len(self.rows)} phases "
                     f"(profiled window {wall}); gc: {self.gc_pauses} pauses, "
                     f"{_fmt_ns(self.gc_pause_ns)}")
        if self.sources:
            lines.append("op sources: " + ", ".join(
                f"{name}={count}" for name, count in
                sorted(self.sources.items(), key=lambda kv: -kv[1])[:8]))
        return "\n".join(lines)


class StackSampler:
    """Background-thread sampler of one target thread's Python stack.

    Samples accumulate as root→leaf frame-name tuples with hit counts —
    exactly the collapsed-stacks shape flamegraph tools consume (see
    :mod:`repro.telemetry.profviz` for the exporters).  Sampling runs on
    a daemon thread and costs the target thread nothing beyond normal
    GIL switches.
    """

    def __init__(self, interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
                 target_ident: Optional[int] = None) -> None:
        if interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.interval_s = interval_s
        self.target_ident = target_ident
        self.samples: Dict[Tuple[str, ...], int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def _frame_name(code) -> str:
        fname = code.co_filename.replace("\\", "/")
        short = "/".join(fname.rsplit("/", 2)[-2:])
        return f"{code.co_name} ({short}:{code.co_firstlineno})"

    def sample_once(self) -> Optional[Tuple[str, ...]]:
        """Take one sample of the target thread (also used directly by
        tests, no thread required)."""
        frame = sys._current_frames().get(self.target_ident)
        if frame is None:
            return None
        stack: List[str] = []
        depth = 0
        while frame is not None and depth < _MAX_STACK_DEPTH:
            stack.append(self._frame_name(frame.f_code))
            frame = frame.f_back
            depth += 1
        key = tuple(reversed(stack))  # root → leaf
        self.samples[key] = self.samples.get(key, 0) + 1
        self.sample_count += 1
        return key

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> None:
        if self._thread is not None:
            return
        if self.target_ident is None:
            self.target_ident = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-prof-sampler")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None


class Profiler:
    """Two-mode performance-attribution profiler (see module docstring).

    Phase-accounting internals are plain lists mutated in place —
    ``[cum_ns, self_ns, count]`` cells — because the engine charges one
    cell per dispatched event and a dataclass per event would itself be
    a hot-path cost worth profiling.
    """

    def __init__(self, mode: str = "phase",
                 sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
                 span_min_wall_ns: int = DEFAULT_SPAN_MIN_WALL_NS,
                 alloc: bool = False) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.phases = mode in ("phase", "both")
        self.sampling = mode in ("sample", "both")
        self.alloc = alloc

        # phase -> [cum_ns, self_ns, count]; engine dispatch cells are
        # additionally cached per callback function for O(1) charging.
        self._cells: Dict[str, List[int]] = {}
        self._fn_cells: Dict[object, List[int]] = {}
        self._stack: List[list] = []  # [phase, t0_wall, child_ns, t0_sim]
        #: Wall ns spent inside *root-level* phase frames — the engine's
        #: profiled loop reads this around each dispatch to split an
        #: event's time into self vs nested-subsystem work.
        self.nested_ns = 0

        self.span_min_wall_ns = span_min_wall_ns
        self.span_log: List[dict] = []
        self._clock = None  # any object with an integer ``.now`` (a Simulator)

        self._sources: Dict[str, Callable[[], int]] = {}

        self.sampler = (StackSampler(interval_s=sample_interval_s)
                        if self.sampling else None)
        self.gc_pauses = 0
        self.gc_pause_ns = 0
        self._gc_t0: Optional[int] = None
        self.alloc_top: List[dict] = []
        self._started = False
        self._t0_wall: Optional[int] = None
        self.wall_ns = 0

    # -- clock / construction-time wiring ----------------------------------

    def bind_clock(self, clock) -> None:
        """Called by the Simulator at construction so phase spans carry
        simulated timestamps (last-built simulator wins)."""
        self._clock = clock

    def add_source(self, name: str, fn: Callable[[], int]) -> None:
        """Register an op-count source (register/sketch/digest tallies)
        read lazily at report time — zero hot-path cost."""
        self._sources[name] = fn

    # -- phase accounting ---------------------------------------------------

    def cell(self, phase: str) -> List[int]:
        """The ``[cum_ns, self_ns, count]`` accumulator for a phase."""
        c = self._cells.get(phase)
        if c is None:
            c = self._cells[phase] = [0, 0, 0]
        return c

    def dispatch_cell(self, key, fn) -> List[int]:
        """Engine-loop cell for one callback, labeled by qualname and
        cached under the underlying function object."""
        label = "engine/" + getattr(fn, "__qualname__", repr(fn))
        c = self.cell(label)
        self._fn_cells[key] = c
        return c

    def begin(self, phase: str) -> None:
        """Open a phase frame.  Pair with :meth:`end` (try/finally at
        call sites); frames nest through the stack."""
        clock = self._clock
        self._stack.append(
            [phase, _pcn(), 0, clock.now if clock is not None else 0])

    def end(self) -> None:
        t_now = _pcn()
        stack = self._stack
        frame = stack.pop()
        elapsed = t_now - frame[1]
        cells = self._cells
        cell = cells.get(frame[0])
        if cell is None:
            cell = cells[frame[0]] = [0, 0, 0]
        cell[0] += elapsed
        cell[1] += elapsed - frame[2]
        cell[2] += 1
        if stack:
            stack[-1][2] += elapsed
            return
        # Root frames feed the engine loop's nested-time delta, and only
        # root frames are wide enough to be worth a Perfetto span.
        self.nested_ns += elapsed
        if elapsed >= self.span_min_wall_ns and self._clock is not None:
            self.span_log.append({
                "path": "profile/" + frame[0],
                "t0_ns": frame[3],
                "dur_ns": self._clock.now - frame[3],
                "wall_ns": elapsed,
            })

    def charge(self, cell: List[int], elapsed: int, count: int) -> None:
        """Book an already-timed, childless span of ``count`` events to
        ``cell`` — what a begin/end pair would record, without the
        frame.  The pipeline charges ``p4.process`` this way: once per
        kernel flush, or once per packet on the scalar path."""
        cell[0] += elapsed
        cell[1] += elapsed
        cell[2] += count
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.nested_ns += elapsed

    def depth(self) -> int:
        return len(self._stack)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Open the profiled window: wall clock, GC callbacks, sampler
        thread and (opt-in) tracemalloc."""
        if self._started:
            return
        self._started = True
        self._t0_wall = time.perf_counter_ns()
        gc.callbacks.append(self._on_gc)
        if self.alloc:
            import tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
        if self.sampler is not None:
            if self.sampler.target_ident is None:
                self.sampler.target_ident = threading.get_ident()
            self.sampler.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.wall_ns += time.perf_counter_ns() - (self._t0_wall or 0)
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - defensive
            pass
        if self.sampler is not None:
            self.sampler.stop()
        if self.alloc:
            import tracemalloc
            if tracemalloc.is_tracing():
                snap = tracemalloc.take_snapshot()
                tracemalloc.stop()
                self.alloc_top = [
                    {"where": str(stat.traceback), "size_kib":
                     round(stat.size / 1024.0, 1), "count": stat.count}
                    for stat in snap.statistics("lineno")[:15]
                ]

    def running(self):
        """``with prof.running(): scenario.run(...)`` — start/stop pair."""
        return _RunCtx(self)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        elif self._gc_t0 is not None:
            self.gc_pauses += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_t0
            self._gc_t0 = None

    # -- reporting ----------------------------------------------------------

    def report(self) -> PhaseReport:
        # Sources first: reading them may settle pending batched work
        # (the monitor drains its buffer), which charges phase cells.
        sources = {name: int(fn()) for name, fn in self._sources.items()}
        rows = [PhaseRow(phase, c[2], c[1], c[0])
                for phase, c in self._cells.items() if c[2]]
        return PhaseReport(
            rows, wall_ns=self.wall_ns, sources=sources,
            gc_pauses=self.gc_pauses, gc_pause_ns=self.gc_pause_ns,
            sample_count=self.sampler.sample_count if self.sampler else 0,
            alloc_top=self.alloc_top)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Profiler(mode={self.mode}, phases={len(self._cells)}, "
                f"samples={self.sampler.sample_count if self.sampler else 0})")


class _RunCtx:
    __slots__ = ("prof",)

    def __init__(self, prof: Profiler) -> None:
        self.prof = prof

    def __enter__(self):
        self.prof.start()
        return self.prof

    def __exit__(self, *exc) -> bool:
        self.prof.stop()
        return False


# -- process-wide switch: the ``hooks.profiler`` slot --------------------------


def enable(mode: str = "phase", **kwargs) -> Profiler:
    """Turn profiling on with a fresh profiler.  Components constructed
    *after* this call bind it; already-built components stay dark (the
    same contract as :func:`repro.telemetry.enable`).

    When provenance tracing is already live, the profiler shares its
    span log so slow phase frames export onto the same Perfetto timeline
    as the packet events (PR 4's ``write_perfetto``).
    """
    if hooks.profiler is not None:
        hooks.profiler.stop()
    prof = hooks.profiler = Profiler(mode=mode, **kwargs)
    if hooks.tracer is not None:
        prof.span_log = hooks.tracer.span_log
    _register_metrics(prof)
    return prof


def _register_metrics(prof: Profiler) -> None:
    """When telemetry is also on, mirror phase cells into the registry
    (``repro_profile_phase_ns{phase,kind}``) at collect time, so phases
    show up in snapshots, the watch view and the archive push path."""
    from repro import telemetry
    if not telemetry.enabled():
        return
    reg = telemetry.registry()
    phase_ns = reg.gauge(
        "repro_profile_phase_ns",
        "wall time attributed to each profiled phase (self/cum)",
        labels=("phase", "kind"))
    phase_events = reg.gauge(
        "repro_profile_phase_events",
        "dispatches/frames counted per profiled phase",
        labels=("phase",))

    def collect(_reg, prof=prof) -> None:
        if hooks.profiler is not prof:  # superseded profiler: stop publishing
            return
        for phase, c in prof._cells.items():
            phase_ns.labels(phase, "cum").set(c[0])
            phase_ns.labels(phase, "self").set(c[1])
            phase_events.labels(phase).set(c[2])

    reg.add_collector(collect)


def disable() -> None:
    if hooks.profiler is not None:
        hooks.profiler.stop()
    hooks.profiler = None


def active() -> bool:
    return hooks.profiler is not None


def profiler() -> Optional[Profiler]:
    """The live profiler, or None when disabled.  Components bind the
    slot once at construction: ``_prof = hooks.profiler``."""
    return hooks.profiler


def reset() -> None:
    """Tests: drop the profiler (lifecycle alias, like provenance)."""
    disable()
