"""Monte Carlo harness: generate populations, redraw assignments, score methods.

One population is fixed per scenario cell; only the assignment vector is
redrawn across replications, matching the finite-population view in which
potential outcomes are constants. Six procedures are scored: the Wald
interval, the robust quadratic-inversion set, two-stage selections at two
first-stage levels, and the F>10 comparators.

A study is scored in stacks of consecutive cells, at most ``STACK_ROWS``
rows each (a cell of more is a stack of its own). Each cell draws its
assignments and builds its families on its own, every draw a row of one
``estimation.row_families`` call; then ``_score`` scores all of the stack's
rows by one ``two_stage.score_rows`` call, as analyze's group pass builds
and scores its groups, and ``_rows`` reduces them to every cell's table
rows at once.
Unadjusted cells get the bits of scoring each draw alone by ``summarize``
and the one-row ``wald_ci``, ``far_set``, ``first_stage_test`` and
``f_screen``; adjusted cells (per-arm OLS fits instead of one interacted
fit, but for the draws they cannot trust) agree to roundoff.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .confidence_sets import KINDS, SetArrays
from .data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from .design import Covariates, draw_assignment
from .estimation import regime_spec, row_families, stack_families
from .exceptions import InfeasibleTargetError
from .mixture import MixtureParams, quantile_table
from .two_stage import F_THRESHOLD, score_rows

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .confidence_sets import far_set, wald_ci
from .estimation import variance_components
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import f_screen, first_stage_test

_POP_RETRIES = 1000

# the most assignments (reps * n) a study may draw for one cell: a cell
# holds them all at once (80 MB of int64 at this limit), and its pass peaks
# at about 35 (CRE), 70 (ReM) and 68 (HC2) traced bytes per assignment
# with k = 5
MAX_CELL_ASSIGNMENTS = 10_000_000


@dataclass(frozen=True)
class DgpConfig:
    """Data-generating process: normal covariates, linear outcome and latent
    receipt equations, each with a theoretical R-squared of one half.

    The treatment shift of the latent receipt index is calibrated so the
    complier count is exactly round(n * tau_w_target).
    """

    n: int
    tau_w_target: float
    k: int = 5

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("n must be even")
        if not 0.0 < self.tau_w_target <= 0.5:
            raise ValueError("tau_w_target must be in (0, 0.5]")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def n1(self) -> int:
        return self.n // 2

    # noise variances giving R^2 = 1/2 per equation (signal variance is k
    # for the control outcome and latent index, 4k for the treated outcome)
    @property
    def var_eps0(self) -> float:
        return float(self.k)

    @property
    def var_eps1(self) -> float:
        return 4.0 * self.k

    @property
    def var_u(self) -> float:
        return float(self.k)


def generate_population(cfg: DgpConfig, rng: np.random.Generator) -> PotentialDataset:
    """Draw one finite population with the target complier fraction.

    Raises InfeasibleTargetError when the latent draw cannot host the
    requested number of compliers; the caller may redraw with a fresh
    stream.
    """
    n, k = cfg.n, cfg.k
    x_raw = rng.standard_normal((n, k))
    signal = x_raw.sum(axis=1)
    y_w0 = signal + rng.normal(0.0, math.sqrt(cfg.var_eps0), n)
    y_w1 = 2.0 * signal + rng.normal(0.0, math.sqrt(cfg.var_eps1), n)
    latent0 = signal + rng.normal(0.0, math.sqrt(cfg.var_u), n)

    m = round(n * cfg.tau_w_target)
    if m < 1:
        raise InfeasibleTargetError(f"target complier count is {m}")
    gaps = np.sort(-latent0[latent0 <= 0.0])
    if len(gaps) < m:
        raise InfeasibleTargetError(
            f"infeasible tau_w_target: need {m} units with nonpositive latent "
            f"index, found {len(gaps)}"
        )
    if m < len(gaps):
        shift = 0.5 * (gaps[m - 1] + gaps[m])
    else:
        shift = gaps[-1] + 1.0
    w0 = (latent0 > 0.0).astype(np.int64)
    w1 = (latent0 + shift > 0.0).astype(np.int64)
    if int((w1 - w0).sum()) != m:
        raise InfeasibleTargetError("tied latent indices broke the calibration")
    y0 = np.where(w0 == 1, y_w1, y_w0)
    y1 = np.where(w1 == 1, y_w1, y_w0)
    return PotentialDataset(w0=w0, w1=w1, y0=y0, y1=y1,
                            x=x_raw - x_raw.mean(axis=0))


@dataclass(frozen=True)
class PopulationOracle:
    """Exact finite-population quantities, computable only from potentials."""

    tau: float
    tau_w: float
    v_a: float
    r2_a: float
    degenerate: bool = False


def population_oracle(p: PotentialDataset, n1: int) -> PopulationOracle:
    """True effect, complier fraction, sampling variance of the adjusted
    contrast, and its squared correlation with covariate imbalance."""
    n = p.n
    n0 = n - n1
    tau = true_sample_late(p)
    tau_w = p.n_compliers / n
    a1 = p.y1 - tau * p.w1
    a0 = p.y0 - tau * p.w0
    s2_1 = float(np.var(a1, ddof=1))
    s2_0 = float(np.var(a0, ddof=1))
    s2_d = float(np.var(a1 - a0, ddof=1))
    v_a = s2_1 / n1 + s2_0 / n0 - s2_d / n
    if p.x.shape[1] == 0:
        proj1 = proj0 = projd = 0.0
    else:
        xc = p.x - p.x.mean(axis=0)
        sxx_inv = Covariates(p.x).sxx_inv

        def proj_var(q):
            s_qx = xc.T @ (q - q.mean()) / (n - 1)
            return float(s_qx @ sxx_inv @ s_qx)

        proj1, proj0, projd = proj_var(a1), proj_var(a0), proj_var(a1 - a0)
    v_a_x = proj1 / n1 + proj0 / n0 - projd / n
    if v_a == 0.0:
        return PopulationOracle(tau=tau, tau_w=tau_w, v_a=0.0, r2_a=math.nan,
                                degenerate=True)
    return PopulationOracle(tau=tau, tau_w=tau_w, v_a=v_a,
                            r2_a=min(max(v_a_x / v_a, 0.0), 1.0))


@dataclass(frozen=True)
class StudyConfig:
    """One simulation study: a list of complier fractions crossed with one
    design and one adjustment choice."""

    n: int = 200
    tau_w: tuple[float, ...] = (0.5,)
    design: str = "cre"
    p_a: float = 0.01
    adjustment: str = "none"
    reps: int = 2000
    seed: int = 20240901
    gamma: tuple[float, ...] = (0.075, 0.025)
    p_plus: float = 0.01
    alpha: float = 0.05
    k: int = 5
    threads: int = 1

    def __post_init__(self):
        if self.design not in ("cre", "rem"):
            raise ValueError(f"unknown design {self.design!r}; choose 'cre' or 'rem'")
        for key, low, rule in (("n", 2, "a positive even integer"),
                               ("reps", 1, "a positive integer"),
                               ("seed", 0, "a non-negative integer"),
                               ("k", 1, "an integer >= 1"),
                               ("threads", 1, "a positive integer")):
            v = getattr(self, key)
            if not _is_integer(v) or v < low or (key == "n" and v % 2):
                raise ValueError(f"{key} must be {rule}; got {v!r}")
        if self.reps * self.n > MAX_CELL_ASSIGNMENTS:
            raise ValueError(f"reps * n must be at most {MAX_CELL_ASSIGNMENTS:,}, the "
                             f"assignments one cell may draw; got reps={self.reps}, n={self.n}")
        for key in ("alpha", "p_a", "p_plus"):
            v = getattr(self, key)
            if not _in_range(v, 1.0):
                raise ValueError(f"{key} must be in (0, 1); got {v!r}")
        for key, high, interval in (("tau_w", 0.5, "(0, 0.5]"), ("gamma", 1.0, "(0, 1)")):
            values = getattr(self, key)
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{key} must be a list of numbers in {interval}; got {values!r}")
            if not len(values):
                raise ValueError(f"{key} must list at least one value")
            bad = [v for v in values if not _in_range(v, high, closed=key == "tau_w")]
            if bad:
                raise ValueError(f"{key} must list numbers in {interval}; got {bad[0]!r}")
        # a table row is named by its gamma to 6 significant digits
        named = {}
        for g in self.gamma:
            name = _gamma_method(g)
            if name in named:
                raise ValueError(f"gamma must list values with distinct method names; "
                                 f"{named[name]!r} and {g!r} are both {name}")
            named[name] = g

    def methods(self) -> list[str]:
        return _method_names(self.gamma)


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _in_range(v, high: float, closed: bool = False) -> bool:
    """Whether ``v`` is a real number in (0, high), or (0, high] if closed."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and 0.0 < v and (v <= high if closed else v < high))


def _method_names(gammas: tuple[float, ...]) -> list[str]:
    return ["wald", "far", *(_gamma_method(g) for g in gammas), "ts_f10", "wald_f10"]


def _gamma_method(gamma: float) -> str:
    return f"ts_gamma_{gamma:g}"


@dataclass(frozen=True)
class PerformanceRow:
    method: str
    design: str
    adjustment: str
    n: int
    tau_w: float
    reps: int
    n_included: int
    median_abs_error: float
    mean_abs_error: float
    coverage: float
    median_length: float
    strong_prop: float | None
    set_kinds: dict[str, int]  # table.json only: geometry counts over included reps
    degenerate: int
    attempts_mean: float  # table.json only: mean rejection draws per accepted assignment


# the stages of a cell whose wall times run_study sums over its cells;
# "tables" is the mixture quantile-table builds a ReM cell triggers, 0 under CRE
STAGES = ("population", "draws", "tables", "scoring", "rows")

# a stack of consecutive cells is scored by one score_rows call and reduced
# at once; it holds at most this many rows, and a cell of more is a stack
# of its own. The families (arm moments, arm OLS) are built per cell
STACK_ROWS = 1024


@dataclass
class PerformanceTable:
    rows: list[PerformanceRow] = field(default_factory=list)
    # seconds per STAGES entry summed over cells, for manifest.json only
    stage_seconds: dict[str, float] = field(default_factory=dict)

    CSV_HEADER = ("method,design,adjustment,n,tau_w,reps,n_included,"
                  "median_abs_error,mean_abs_error,coverage,median_length,strong_prop")

    def row(self, method: str, tau_w: float) -> PerformanceRow:
        for r in self.rows:
            if r.method == method and r.tau_w == tau_w:
                return r
        raise KeyError((method, tau_w))

    def to_csv(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                if math.isinf(v):
                    return "inf"
                if math.isnan(v):
                    return "na"
                return format(v, ".10g")
            return str(v)

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(fmt(getattr(r, c)) for c in
                                  self.CSV_HEADER.split(",")))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, float):
                if math.isinf(v):
                    return "inf"
                if math.isnan(v):
                    return "na"
            return v

        # the fields as they are, but for a copy of the row's set_kinds
        names = [f.name for f in dataclasses.fields(PerformanceRow)]
        return {"rows": [{**{k: enc(getattr(r, k)) for k in names},
                          "set_kinds": dict(r.set_kinds)} for r in self.rows]}


def median_extended(values: np.ndarray) -> float:
    """Lower median, so the result is infinite exactly when more than half
    of the values are; nan for no values. A nan value is an error: _rows
    passes absolute errors (inf where the estimate is not finite) and set
    lengths (inf for an unbounded set), neither of which is ever nan. The
    one-row call of _medians."""
    v = np.asarray(values, dtype=float)[None]
    return float(_medians(v, np.ones(v.shape, dtype=bool))[0])


def _medians(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """median_extended of the kept values of each row of ``values``: the
    order statistic read off the row partitioned with its other values as
    nan, which goes last, at every row's median position."""
    if np.isnan(values[kept]).any():
        raise ValueError("median_extended got a nan value")
    if not values.shape[1]:
        return np.full(len(values), math.nan)
    counts = kept.sum(axis=1)
    mids = np.maximum((counts + 1) // 2 - 1, 0)
    ordered = np.partition(np.where(kept, values, math.nan), sorted(set(mids.tolist())), axis=1)
    return np.where(counts > 0, ordered[np.arange(len(values)), mids], math.nan)


def _means(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The mean of the kept values of each row of ``values``, nan for none,
    bit for bit np.mean of them alone: a row mean where all are kept, else
    one np.mean per row, as a masked sum would add in another order."""
    if kept.all():
        return values.mean(axis=1) if values.shape[1] else np.full(len(values), math.nan)
    return np.array([np.mean(v[k]) if k.any() else math.nan for v, k in zip(values, kept)])


def _longer_wald_message(wald_length: float, far_length: float) -> str:
    return (f"Wald interval length {wald_length!r} exceeds "
            f"the FAR interval length {far_length!r}")


class MethodScores(NamedTuple):
    """One method's sets over a cell's draws; ``strong`` is None for methods
    without a first-stage decision."""

    sets: SetArrays
    strong: np.ndarray | None
    included: np.ndarray


def _score(tau_y: np.ndarray, tau_w: np.ndarray, families: dict, errors: dict,
           base: AnalysisConfig, k: int, gammas: tuple[float, ...]
           ) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-row ratio estimates (nan where tau_w is 0) and each method's
    MethodScores in table order, for every row of a stack's ``row_families``
    results at once (``errors`` is what each row's families raised), by one
    ``score_rows`` call. The first failing row's first failure (its
    families, its sets, or a Wald interval longer than its FAR interval)
    is raised."""
    scored = score_rows(tau_y, tau_w, families, base, k, gammas)
    wald_sets, far = scored.wald, scored.far
    wald_len, far_len = wald_sets.length, far.length
    longer = ((far.kind == KINDS.index("interval")) & ~far.degenerate
              & (wald_len > far_len + 1e-9 * np.maximum(far_len, 1.0)))
    # as scoring draw by draw would, raise the first failing draw's first failure
    failed = {int(i): ArithmeticError(_longer_wald_message(float(wald_len[i]),
                                                           float(far_len[i])))
              for i in np.flatnonzero(longer)}
    failed.update(far.errors)
    failed.update(wald_sets.errors)
    failed.update(errors)
    if failed:
        raise failed[min(failed)]

    def pick(strong: np.ndarray) -> SetArrays:
        # the Wald set where the first stage is strong, else the FAR set,
        # field by field over the four per-draw arrays
        return SetArrays(*(np.where(strong, u, v) for u, v in zip(wald_sets[:4], far[:4])),
                         errors={})

    with np.errstate(divide="ignore", invalid="ignore"):
        estimates = np.where(tau_w != 0.0, tau_y / tau_w, math.nan)
    every = np.ones(len(tau_y), dtype=bool)
    scores = {"wald": MethodScores(wald_sets, None, every),
              "far": MethodScores(far, None, every)}
    for g, crit in scored.t_crit.items():
        strong = scored.t_stat > crit
        scores[_gamma_method(g)] = MethodScores(pick(strong), strong, every)
    f_strong = scored.f_stat > F_THRESHOLD
    scores["ts_f10"] = MethodScores(pick(f_strong), f_strong, every)
    scores["wald_f10"] = MethodScores(wald_sets, f_strong, f_strong)
    return estimates, scores


def _population_for_cell(cfg: StudyConfig, cell: int, tau_w: float) -> PotentialDataset:
    dgp = DgpConfig(n=cfg.n, tau_w_target=tau_w, k=cfg.k)
    for attempt in range(_POP_RETRIES):
        rng = np.random.default_rng((cfg.seed, cell, 0, attempt))
        try:
            return generate_population(dgp, rng)
        except InfeasibleTargetError:
            continue
    raise InfeasibleTargetError(
        f"no feasible population for tau_w={tau_w} in {_POP_RETRIES} attempts")


def _analysis_config(cfg: StudyConfig) -> AnalysisConfig:
    """The analysis config every cell of the study is scored under."""
    design = (DesignSpec.rem(cfg.n // 2, p_a=cfg.p_a, k=cfg.k)
              if cfg.design == "rem" else DesignSpec.cre(cfg.n // 2))
    return AnalysisConfig(alpha=cfg.alpha, gamma=cfg.gamma[0], p_plus=cfg.p_plus,
                          adjustment=cfg.adjustment, design=design)


def _stack_streams(cfg: StudyConfig, cells: list[tuple[int, float]]
                   ) -> tuple[np.random.Generator, list[dict]]:
    """A generator and the PCG64 state of every replication of ``cells``,
    cell by cell: replication ``rep`` of cell ``c`` draws from the stream of
    ``default_rng((seed, c, 1 + rep))``. Rather than seed one generator per
    replication, _stream_states derives every state in one pass, and the
    generator is set to each in turn. The generator is numpy's own seeding
    of the first replication, whose derived state must equal it, or the
    study raises."""
    entropy = np.concatenate([_draw_entropy(cfg.seed, cell, cfg.reps) for cell, _ in cells])
    states = _stream_states(entropy)
    rng = np.random.default_rng(entropy[0])
    if rng.bit_generator.state != states[0]:
        raise RuntimeError(
            f"the PCG64 state derived for seed {cfg.seed}, cell {cells[0][0]}, replication 0 "
            f"differs from numpy {np.__version__}'s seeding of that stream")
    return rng, states


def _cell_draws(cfg: StudyConfig, cell: int, tau_w: float, design: DesignSpec,
                rng: np.random.Generator, states: list[dict], seconds: dict | None = None
                ) -> tuple[PotentialDataset, np.ndarray, np.ndarray]:
    """A cell's population, one assignment row per entry of ``states`` (the
    cell's replication streams, which ``rng`` is set to in turn) and each
    row's rejection draw count; the covariates' balance metric is worked
    out once for all. Given ``seconds``, the population's and the draws'
    wall times are added to its "population" and "draws" entries."""
    with _timed(seconds, "population"):
        pop = _population_for_cell(cfg, cell, tau_w)
    with _timed(seconds, "draws"):
        covariates = Covariates(pop.x)
        zs = np.zeros((len(states), cfg.n), dtype=np.int64)
        attempts = np.zeros(len(states), dtype=np.int64)
        for rep, state in enumerate(states):
            rng.bit_generator.state = state
            draw = draw_assignment(design, covariates, rng)
            zs[rep], attempts[rep] = draw.z, draw.accepted_after
    return pop, zs, attempts


@contextmanager
def _timed(seconds: dict | None, stage: str):
    """Add the block's wall time to ``seconds[stage]``, if ``seconds`` is given."""
    start = time.perf_counter()
    yield
    if seconds is not None:
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start


def _seed_words(v: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first, the
    way numpy's SeedSequence splits an int (0 is one word)."""
    return [(v >> shift) & 0xFFFFFFFF for shift in range(0, max(v.bit_length(), 1), 32)]


def _draw_entropy(seed: int, cell: int, reps: int) -> np.ndarray:
    """One uint32 entropy row per replication: the words of ``seed``,
    ``cell`` and ``1 + rep``. A generator seeded from row ``rep`` gives the
    stream of ``default_rng((seed, cell, 1 + rep))``, without numpy
    coercing a tuple for every draw."""
    head = _seed_words(seed) + _seed_words(cell)
    entropy = np.empty((reps, len(head) + 1), dtype=np.uint32)
    entropy[:, :-1] = head
    entropy[:, -1] = np.arange(1, reps + 1)
    return entropy


# numpy's SeedSequence: a pool of four uint32 words, hashed in with the
# (initial value, multiplier) pair _HASH_POOL, mixed by _MIX, and read out
# by generate_state with _HASH_OUT; then PCG64's 128-bit LCG multiplier
_POOL_WORDS = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)
_HASH_OUT = (0x8B51F9DD, 0x58F38DED)
_MIX = (np.uint32(0xCA01F9DD), np.uint32(0x4973F715))
_XSHIFT = np.uint32(16)
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` values of a SeedSequence hash constant, as a
    (count + 1, 1) uint32 column."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


def _stream_states(entropy: np.ndarray) -> list[dict]:
    """The ``bit_generator.state`` of ``default_rng(row)`` for every uint32
    row of ``entropy``: numpy's SeedSequence pool mixing and its
    generate_state(4, uint64), vectorized over the rows in uint32
    arithmetic, then PCG64's seeding in Python ints.

    Every hash of the pool mixing multiplies by the next value of one
    constant sequence, so the hashes of one word into the other pool words
    take consecutive constants at once."""
    reps, width = entropy.shape
    consts = _hash_constants(*_HASH_POOL, _POOL_WORDS * max(width, _POOL_WORDS))
    used = 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:
        nonlocal used
        value = (value ^ consts[used:used + count]) * consts[used + 1:used + count + 1]
        used += count
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = _MIX[0] * x - _MIX[1] * y
        return value ^ (value >> _XSHIFT)

    words = np.zeros((max(width, _POOL_WORDS), reps), dtype=np.uint32)
    words[:width] = entropy.T
    pool = hashmix(words[:_POOL_WORDS], _POOL_WORDS)
    # every pool word into every other, then each further entropy word
    # into every pool word
    for src in range(_POOL_WORDS):
        dst = np.arange(_POOL_WORDS) != src
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_WORDS - 1))
    for src in range(_POOL_WORDS, width):
        pool = mix(pool, hashmix(words[src], _POOL_WORDS))
    # generate_state: eight words off the cycled pool, paired little-end
    # first into uint64 (seed high, seed low, inc high, inc low)
    out = _hash_constants(*_HASH_OUT, 2 * _POOL_WORDS)
    value = (np.tile(pool, (2, 1)) ^ out[:-1]) * out[1:]
    value = (value ^ (value >> _XSHIFT)).astype(np.uint64)
    seeds = (value[0::2] | value[1::2] << np.uint64(32)).T.tolist()
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in seeds:
        # pcg64_set_seed: inc = 2 * seq + 1; one step from 0, add the seed, step
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULTIPLIER + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _run_cells(cfg: StudyConfig, cells: list[tuple[int, float]]
               ) -> tuple[list[PerformanceRow], dict[str, float]]:
    """The performance rows of consecutive ``cells`` ((number, tau_w)
    pairs), stack by stack, and the wall time of each stage summed over
    them. The lowest-numbered failing cell's error is raised, whatever
    stage it fails in."""
    seconds = dict.fromkeys(STAGES, 0.0)
    base = _analysis_config(cfg)
    per_stack = max(STACK_ROWS // cfg.reps, 1)
    rows = []
    for start in range(0, len(cells), per_stack):
        rows += _run_stack(cfg, base, cells[start:start + per_stack], seconds)
    return rows, seconds


def _run_stack(cfg: StudyConfig, base: AnalysisConfig, stack: list[tuple[int, float]],
               seconds: dict) -> list[PerformanceRow]:
    """A stack's performance rows: each cell's families, built one cell at
    a time, then one ``_score`` call and one ``_rows`` reduction over all
    of the stack's rows. A cell that fails before scoring ends the stack:
    the cells before it are scored first, and raise their own failure."""
    with _timed(seconds, "draws"):
        rng, states = _stack_streams(cfg, stack)
    built, failure = [], None
    for j, (cell, tau_w) in enumerate(stack):
        try:
            built.append(_cell_families(cfg, cell, tau_w, base, rng,
                                        states[j * cfg.reps:(j + 1) * cfg.reps], seconds))
        except Exception as exc:  # raised once the cells before it are scored
            failure = exc
            break
    if built:
        families, truths, attempts = zip(*built)
        if regime_spec(base.regime).mixture:
            with _timed(seconds, "tables"):
                # every table _score reads, built here (or found in the
                # cache) so that a build is not timed as scoring
                for alpha in (base.alpha / 2.0, *cfg.gamma):
                    quantile_table(MixtureParams(k=cfg.k, a=base.design.a, alpha=alpha))
        with _timed(seconds, "scoring"):
            scored = _score(*stack_families(families), base, cfg.k, cfg.gamma)
        with _timed(seconds, "rows"):
            rows = _rows(cfg, [tau_w for _, tau_w in stack[:len(built)]], truths,
                         np.concatenate(attempts), *scored)
    if failure is not None:
        raise failure
    return rows


def _cell_families(cfg: StudyConfig, cell: int, tau_w: float, base: AnalysisConfig,
                   rng: np.random.Generator, states: list[dict], seconds: dict):
    """A cell's ``row_families`` result over its draws, its true effect and its
    rejection draw counts; its assignments are dropped on return. Building
    the families is timed as scoring."""
    pop, zs, attempts = _cell_draws(cfg, cell, tau_w, base.design, rng, states, seconds)
    with _timed(seconds, "scoring"):
        families = row_families(zs, np.array([[pop.y1, pop.w1], [pop.y0, pop.w0]], dtype=float),
                                pop.x, base)
    return families, true_sample_late(pop), attempts


def _rows(cfg: StudyConfig, tau_ws, truths, attempts: np.ndarray, estimates: np.ndarray,
          scores: dict[str, MethodScores]) -> list[PerformanceRow]:
    """One performance row per cell and method, cell by cell: the rows of
    the stack split evenly into the cells of ``tau_ws`` (true effects
    ``truths``), and every method reduced over each cell's included draws
    at once."""
    cells = len(tau_ws)
    per_cell = len(estimates) // cells

    def by_cell(v: np.ndarray) -> np.ndarray:
        return v.reshape(cells, per_cell)

    truth = np.repeat(np.asarray(truths, dtype=float), per_cell)
    attempts_mean = (by_cell(attempts).mean(axis=1) if per_cell
                     else np.full(cells, math.nan)).tolist()
    abs_errors = by_cell(np.where(np.isfinite(estimates), np.abs(estimates - truth), math.inf))
    # _score gives each method the Wald sets, the FAR sets or their pick by
    # its strong flags, so coverage and length are worked out once for each
    wald, far = scores["wald"].sets, scores["far"].sets
    covered = wald.contains(truth), far.contains(truth)
    lengths = wald.length, far.length
    kind_codes = np.arange(cells)[:, None] * len(KINDS)

    def of_sets(s: MethodScores, values: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        if s.sets is wald:
            return by_cell(values[0])
        if s.sets is far:
            return by_cell(values[1])
        return by_cell(np.where(s.strong, *values))

    per_method = {}
    for m, s in scores.items():
        kept = by_cell(s.included)
        n_kept = kept.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coverage = np.where(n_kept > 0, (of_sets(s, covered) & kept).sum(axis=1) / n_kept,
                                math.nan)
        kinds = np.bincount((kind_codes + by_cell(s.sets.kind))[kept],
                            minlength=cells * len(KINDS)).reshape(cells, len(KINDS))
        # each PerformanceRow field but the study's own, one entry per cell
        per_method[m] = {
            "n_included": n_kept.tolist(),
            "median_abs_error": _medians(abs_errors, kept).tolist(),
            "mean_abs_error": _means(abs_errors, kept).tolist(),
            "coverage": coverage.tolist(),
            "median_length": _medians(of_sets(s, lengths), kept).tolist(),
            "strong_prop": ((by_cell(s.strong).sum(axis=1) / per_cell).tolist()
                            if s.strong is not None and per_cell else [None] * cells),
            "set_kinds": [dict(zip(KINDS, counts)) for counts in kinds.tolist()],
            "degenerate": (by_cell(s.sets.degenerate) & kept).sum(axis=1).tolist(),
            "attempts_mean": attempts_mean}
    return [PerformanceRow(method=m, design=cfg.design, adjustment=cfg.adjustment, n=cfg.n,
                           tau_w=tau_w, reps=cfg.reps, **{k: v[c] for k, v in fields.items()})
            for c, tau_w in enumerate(tau_ws) for m, fields in per_method.items()]

def run_study(cfg: StudyConfig) -> PerformanceTable:
    """Run every cell of the study; deterministic for a fixed config. The
    cells run in stacks of consecutive cells, in this process or split into
    contiguous chunks over at most ``threads`` worker processes (no more
    than there are cells or CPUs)."""
    cells = list(enumerate(cfg.tau_w))
    workers = min(cfg.threads, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it brings in multiprocessing, which would cost every
        # process that imports latekit 12-19 ms; only threaded studies use it
        from concurrent.futures import ProcessPoolExecutor
        bounds = [len(cells) * w // workers for w in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_cells, [cfg] * workers,
                                  [cells[lo:hi] for lo, hi in zip(bounds, bounds[1:])]))
    else:
        parts = [_run_cells(cfg, cells)]
    table = PerformanceTable(stage_seconds=dict.fromkeys(STAGES, 0.0))
    for rows, seconds in parts:
        table.rows.extend(rows)
        for stage, value in seconds.items():
            table.stage_seconds[stage] += value
    return table
