"""Spans recorded from outside latekit, and the per-layer metrics built on them.

``bound(tracer)`` rebinds the public functions that the calling modules
(``simulation``, ``confidence_sets``, ``two_stage``, ``io``, ``cli``) import,
plus ``PotentialDataset.reveal`` and ``MixtureQuantileTable.build``, to
wrappers that record one span per call. Nothing inside the package changes,
and the originals are restored on exit.

A span is (id, name, parent id, op, thread, start, end, note). Open spans sit
in a per-thread stack. A span opened on a pool thread with an empty stack
takes the innermost open span of the main thread as its parent, which is the
``analyze_file`` call blocked on the pool. An op is one study replication
(begun by each assignment draw) or one stratum (begun by each
``analyze_stratum``); ``note`` keeps the small part of the result a metric
counts, such as the set geometry.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    parent: int | None
    op: int | None
    thread: int
    start: float
    end: float
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced pass, from any thread."""

    def __init__(self):
        self._raw: list[tuple] = []  # finished spans; Span objects on demand
        self._ids = itertools.count(1)
        self._ops = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[tuple] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            is_main = threading.current_thread() is self._main_thread
            local.stack = self._main_stack if is_main else []
            local.op = None
            local.thread = threading.get_ident()
        return local

    def enter(self, name: str, op: str | None = None) -> tuple:
        """Open a span. ``op="start"`` begins a new op, ``op="none"`` ends the
        current one; otherwise the span belongs to the thread's current op."""
        local = self._state()
        if op == "start":
            local.op = next(self._ops)
        elif op == "none":
            local.op = None
        stack = local.stack
        if stack:
            parent = stack[-1][0]
        else:
            top = self._main_stack[-1:]  # one slice, so no race with the main thread
            parent = top[0][0] if top else None
        frame = (next(self._ids), name, parent, local.op, local.thread, time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: tuple, note=None) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        self._raw.append((*frame, end, note))

    @property
    def spans(self) -> list[Span]:
        return [Span(*raw) for raw in self._raw]

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, fn, name: str, note=None, op: str | None = None):
        """``fn`` recording one span per call; ``note(result)`` is kept on it,
        and a raised exception is noted as ``raised:<type>``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, op)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(frame, "raised:" + type(exc).__name__)
                raise
            self.exit(frame, note(result) if note else None)
            return result
        return traced


def _far_note(cs):
    return cs.kind, cs.degenerate


# (module, attribute, span name, note, op) for every rebound function.
_BINDINGS = (
    ("cli", "run_study", "simulation.run_study", None, None),
    ("cli", "analyze_file", "io.analyze_file", None, None),
    ("cli", "plot_data_rows", "cli.plot_data_rows", None, None),
    ("cli", "write_plot_data", "cli.write_plot_data", None, None),
    ("simulation", "generate_population", "simulation.population", None, "none"),
    ("simulation", "draw_assignment", "design.draw", lambda r: r.accepted_after, "start"),
    ("io", "read_records", "io.read_records", lambda r: sum(len(g.z) for g in r), None),
    ("io", "analyze_stratum", "io.stratum", lambda r: "skipped" in r, "start"),
    *((mod, "summarize", "stats_core.summarize", None, None) for mod in ("simulation", "io")),
    *((mod, "fit_interacted_pair", "stats_core.ols_pair", None, None)
      for mod in ("simulation", "io")),
    *((mod, "sandwich_cov", "stats_core.sandwich", None, None) for mod in ("simulation", "io")),
    *((mod, "variance_components", "estimation.components", None, None)
      for mod in ("simulation", "io")),
    *((mod, "wald_ci", "confidence_sets.wald", lambda r: r.degenerate, None)
      for mod in ("simulation", "io")),
    *((mod, "far_set", "confidence_sets.far", _far_note, None) for mod in ("simulation", "io")),
    *((mod, "first_stage_test", "two_stage.first_stage", lambda r: r.strong, None)
      for mod in ("simulation", "io")),
    *((mod, "f_screen", "two_stage.f_screen", None, None) for mod in ("simulation", "io")),
    ("confidence_sets", "solve_quadratic_set", "confidence_sets.invert", None, None),
    ("confidence_sets", "r2_star", "estimation.r2_star", lambda r: r.degenerate, None),
    ("confidence_sets", "combined_variance", "estimation.combined_variance",
     lambda r: r.floored, None),
    *((mod, "lambda_quantile", "mixture.lookup", None, None)
      for mod in ("confidence_sets", "two_stage")),
)


@contextmanager
def bound(tracer: Tracer):
    """Rebind every traced latekit function to ``tracer`` for the block."""
    from latekit.data_model import PotentialDataset
    from latekit.mixture import MixtureQuantileTable

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for mod, attr, name, note, op in _BINDINGS:
            module = importlib.import_module(f"latekit.{mod}")
            rebind(module, attr, tracer.wrap(getattr(module, attr), name, note, op))
        rebind(PotentialDataset, "reveal",
               tracer.wrap(PotentialDataset.reveal, "data_model.reveal"))
        build = MixtureQuantileTable.__dict__["build"].__func__
        rebind(MixtureQuantileTable, "build",
               classmethod(tracer.wrap(build, "mixture.table_build")))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children on other threads may overlap each other; covered time counts
    once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


# Per-layer metrics: name -> unit. Counts and times are per pass.
LAYER_METRICS = {
    "design.draw_calls": "count",
    "design.draw_self_s": "s",
    "design.draw_ms_p50": "ms",
    "design.draw_ms_p99": "ms",
    "design.candidates_per_accept": "ratio",
    "mixture.table_builds": "count",
    "mixture.table_build_s": "s",
    "mixture.lookup_calls": "count",
    "mixture.lookup_self_s": "s",
    "stats_core.summarize_self_s": "s",
    "stats_core.summarize_us_p50": "us",
    "stats_core.ols_pair_self_s": "s",
    "stats_core.ols_pair_us_p50": "us",
    "stats_core.sandwich_self_s": "s",
    "estimation.components_self_s": "s",
    "estimation.components_us_p50": "us",
    "estimation.r2_star_calls": "count",
    "estimation.r2_star_self_s": "s",
    "estimation.r2_degenerate": "count",
    "estimation.floored": "count",
    "confidence_sets.wald_self_s": "s",
    "confidence_sets.far_self_s": "s",
    "confidence_sets.invert_self_s": "s",
    "confidence_sets.far_kind.interval": "count",
    "confidence_sets.far_kind.two_rays": "count",
    "confidence_sets.far_kind.whole_line": "count",
    "confidence_sets.far_kind.ray": "count",
    "confidence_sets.far_kind.point": "count",
    "confidence_sets.degenerate": "count",
    "two_stage.first_stage_self_s": "s",
    "two_stage.f_screen_self_s": "s",
    "two_stage.strong_share": "ratio",
    "simulation.population_s": "s",
    "simulation.population_retries": "count",
    "data_model.reveal_s": "s",
    "simulation.loop_self_s": "s",
    "io.read_s": "s",
    "io.rows": "count",
    "io.stratum_calls": "count",
    "io.skipped": "count",
    "io.stratum_busy_s": "s",
    "io.pool_wall_s": "s",
    "cli.plot_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

# Medians of these come from the durations of every traced pass pooled.
_POOLED = {
    "design.draw_ms_p50": ("design.draw", 1e3, 0.50),
    "design.draw_ms_p99": ("design.draw", 1e3, 0.99),
    "stats_core.summarize_us_p50": ("stats_core.summarize", 1e6, 0.50),
    "stats_core.ols_pair_us_p50": ("stats_core.ols_pair", 1e6, 0.50),
    "estimation.components_us_p50": ("estimation.components", 1e6, 0.50),
}


def _quantile(values: list[float], q: float) -> float:
    """Lower empirical quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def self_s(name):
        return sum((own[s.sid] for s in by_name.get(name, ())), 0.0)

    def notes(name):
        return [s.note for s in by_name.get(name, ())]

    far_kinds = [kind for kind, _ in notes("confidence_sets.far")]
    strong = notes("two_stage.first_stage")
    draws = notes("design.draw")
    return {
        "design.draw_calls": calls("design.draw"),
        "design.draw_self_s": self_s("design.draw"),
        "design.candidates_per_accept": sum(draws) / len(draws) if draws else 0.0,
        "mixture.lookup_calls": calls("mixture.lookup"),
        "mixture.lookup_self_s": self_s("mixture.lookup"),
        "stats_core.summarize_self_s": self_s("stats_core.summarize"),
        "stats_core.ols_pair_self_s": self_s("stats_core.ols_pair"),
        "stats_core.sandwich_self_s": self_s("stats_core.sandwich"),
        "estimation.components_self_s": self_s("estimation.components"),
        "estimation.r2_star_calls": calls("estimation.r2_star"),
        "estimation.r2_star_self_s": self_s("estimation.r2_star"),
        "estimation.r2_degenerate": sum(notes("estimation.r2_star")),
        "estimation.floored": sum(notes("estimation.combined_variance")),
        "confidence_sets.wald_self_s": self_s("confidence_sets.wald"),
        "confidence_sets.far_self_s": self_s("confidence_sets.far"),
        "confidence_sets.invert_self_s": self_s("confidence_sets.invert"),
        "confidence_sets.far_kind.interval": far_kinds.count("interval"),
        "confidence_sets.far_kind.two_rays": far_kinds.count("two_rays"),
        "confidence_sets.far_kind.whole_line": far_kinds.count("whole_line"),
        "confidence_sets.far_kind.ray": (far_kinds.count("left_ray")
                                         + far_kinds.count("right_ray")),
        "confidence_sets.far_kind.point": far_kinds.count("point"),
        "confidence_sets.degenerate": (sum(notes("confidence_sets.wald"))
                                       + sum(d for _, d in notes("confidence_sets.far"))),
        "two_stage.first_stage_self_s": self_s("two_stage.first_stage"),
        "two_stage.f_screen_self_s": self_s("two_stage.f_screen"),
        "two_stage.strong_share": sum(strong) / len(strong) if strong else 0.0,
        "simulation.population_s": busy("simulation.population"),
        "simulation.population_retries": notes("simulation.population").count(
            "raised:InfeasibleTargetError"),
        "data_model.reveal_s": busy("data_model.reveal"),
        "simulation.loop_self_s": self_s("simulation.run_study"),
        "io.read_s": busy("io.read_records"),
        "io.rows": sum(notes("io.read_records")),
        "io.stratum_calls": calls("io.stratum"),
        "io.skipped": sum(notes("io.stratum")),
        "io.stratum_busy_s": busy("io.stratum"),
        "io.pool_wall_s": busy("io.analyze_file") - busy("io.read_records"),
        "cli.plot_s": busy("cli.plot_data_rows") + busy("cli.write_plot_data"),
        "cli.self_s": self_s("cli.main"),
    }


def layer_metrics(setup_spans: list[Span], passes: list[list[Span]],
                  overhead: float) -> dict[str, float]:
    """Every per-layer metric from the set-up spans and the traced passes.

    Times are medians over the passes, percentiles pool every pass, and
    counts come from the first pass. Raises ValueError when a count differs
    between passes, because identical passes must do identical work.
    """
    per_pass = [pass_metrics(spans) for spans in passes]
    out = {}
    for name, value in per_pass[0].items():
        values = [m[name] for m in per_pass]
        if LAYER_METRICS[name] == "count":
            if len(set(values)) != 1:
                raise ValueError(f"{name} differs between identical passes: {values}")
            out[name] = value
        else:
            out[name] = statistics.median(values)
    for name, (span_name, scale, q) in _POOLED.items():
        out[name] = scale * _quantile(
            [s.duration for spans in passes for s in spans if s.name == span_name], q)
    builds = [s for s in setup_spans if s.name == "mixture.table_build"]
    out["mixture.table_builds"] = len(builds)
    out["mixture.table_build_s"] = sum((s.duration for s in builds), 0.0)
    out["trace.overhead"] = overhead
    return {name: out[name] for name in LAYER_METRICS}
