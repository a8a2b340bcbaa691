"""Monte Carlo harness: generate populations, redraw assignments, score methods.

One population is fixed per scenario cell; only the assignment vector is
redrawn across replications, matching the finite-population view in which
potential outcomes are constants. Six procedures are scored: the Wald
interval, the robust quadratic-inversion set, two-stage selections at two
first-stage levels, and the F>10 comparators.

``_score`` scores a cell in one array pass over all of its draws: its
``_FAMILIES`` entry builds the families by ``estimation``'s builders, as
analyze's groups do, then ``two_stage.score_rows`` scores them. Unadjusted
cells get the bits of scoring each draw alone by ``summarize`` and the
one-row ``wald_ci``, ``far_set``, ``first_stage_test`` and ``f_screen``;
adjusted cells (per-arm OLS fits instead of one interacted fit, but for
the draws they cannot trust) agree to roundoff.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .confidence_sets import KINDS, SetArrays
from .data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from .design import Covariates, draw_assignment
from .estimation import moment_families, regime_spec, sandwich_families
from .exceptions import InfeasibleTargetError
from .mixture import MixtureParams, quantile_table
from .stats_core import _FLAVOR_EXPONENT, _arm_indices, _arm_moments
from .two_stage import F_THRESHOLD, score_rows

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .confidence_sets import far_set, wald_ci
from .estimation import variance_components
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import f_screen, first_stage_test

_POP_RETRIES = 1000


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
    lengths (inf for an unbounded set), neither of which is ever nan."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return math.nan
    if np.isnan(v).any():
        raise ValueError("median_extended got a nan value")
    mid = (len(v) + 1) // 2 - 1
    return float(np.partition(v, mid)[mid])


def _longer_wald_message(wald_length: float, far_length: float) -> str:
    return (f"Wald interval length {wald_length!r} exceeds "
            f"the FAR interval length {far_length!r}")


class MethodScores(NamedTuple):
    """One method's sets over a cell's draws; ``strong`` is None for methods
    without a first-stage decision."""

    sets: SetArrays
    strong: np.ndarray | None
    included: np.ndarray


def _moment_families(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
                     x: np.ndarray | None = None):
    """moment_families of every assignment row, by the arm kernel summarize
    calls for one draw, so the bits agree; all three given covariates ``x``."""
    n1 = base.design.n1
    idx1, idx0 = _arm_indices(zs, n1)
    return moment_families(_arm_moments(idx1, pop.y1, pop.w1, x),
                           _arm_moments(idx0, pop.y0, pop.w0, x), n1, zs.shape[1] - n1,
                           None if x is None else Covariates(x).sxx_inv)


# an arm design whose equilibrated R-diagonal ratio, or a leverage's
# distance from one, falls below this is refit by the scalar path, which
# raises at 1e-10 and 1e-12
_ARM_GUARD = 1e-6


def _arm_ols(idx: np.ndarray, yw: np.ndarray, x1: np.ndarray, expo: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS of the two columns of ``yw`` (outcome, receipt) on the columns of
    ``x1`` (ones, covariates) within one arm, for every row of ``idx`` (the
    arm's unit indices of one draw): the two intercepts, the arm's share of
    the sandwich triple (v_y, c_yw, v_w) with leverage weights
    (1 - h)^-expo, and which draws the guard sends to the scalar path.

    Only R of the QR factorization is computed; Q is the design times the
    one inverse of R, whose first row is also the intercept's row."""
    design = np.take(x1, idx, axis=0)
    r = np.linalg.qr(design, mode="r")
    with np.errstate(divide="ignore", invalid="ignore"):
        # the R-diagonal of the column-equilibrated design (R's column norms
        # are the design's); a zero column gives nan
        norms = np.sqrt(np.einsum("rij,rij->rj", r, r))
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2)) / norms
        unsure = ~(diag.min(axis=1) >= _ARM_GUARD * diag.max(axis=1))
    r_inv = np.linalg.inv(np.where(unsure[:, None, None], np.eye(r.shape[-1]), r))
    q = design @ r_inv
    lev = np.einsum("rij,rij->ri", q, q)
    unsure |= lev.max(axis=1) > 1.0 - _ARM_GUARD
    # the intercept's row of R^-1, and its influence row e0' R^-1 Q'
    e0_rinv = r_inv[:, :1, :]
    yw_arm = np.take(yw, idx, axis=0)
    proj = np.swapaxes(q, 1, 2) @ yw_arm
    # residual times influence, per unit and outcome
    terms = (yw_arm - q @ proj) * (q @ np.swapaxes(e0_rinv, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in guarded draws
        # sum over units of weight * term_a * term_b, a 2 x 2 block per draw
        weights = (1.0 - lev) ** -expo
        meat = np.swapaxes(terms * weights[:, :, None], 1, 2) @ terms
    triple = np.stack([meat[:, 0, 0], meat[:, 0, 1], meat[:, 1, 1]], axis=1)
    return (e0_rinv @ proj)[:, 0, :], triple, unsure


def _sandwich_families(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig):
    """The regression-adjusted effect estimates and sandwich family of every
    assignment row of ``zs``, and the error each row's scalar fit raises.

    The interacted fit equals separate OLS fits of each arm on [1, x] (Lin
    2013), so the effect estimates are the gaps between the arms'
    intercepts, and the sandwich sums each arm's weighted residual products
    along its intercept's influence row. Draws near a case where the scalar
    fit raises (an arm of at most k + 1 units, a nearly collinear arm
    design, a leverage near one) are refit by sandwich_families, which keeps
    what each refit raises.
    """
    reps, n = zs.shape
    n1, k = base.design.n1, pop.x.shape[1]
    # per draw: tau_y, tau_w and the sandwich triple (v_y, c_yw, v_w)
    cols = np.zeros((reps, 5))
    unsure = np.ones(reps, dtype=bool)
    if min(n1, n - n1) > k + 1:
        expo = _FLAVOR_EXPONENT[base.adjustment]
        x1 = np.column_stack([np.ones(n), pop.x])
        (int1, sw1, unsure1), (int0, sw0, unsure0) = (
            _arm_ols(idx, np.column_stack([y, w]).astype(float), x1, expo) for idx, y, w in
            zip(_arm_indices(zs, n1), (pop.y1, pop.y0), (pop.w1, pop.w0)))
        cols = np.concatenate([int1 - int0, sw1 + sw0], axis=1)
        unsure = unsure1 | unsure0
    refit = np.flatnonzero(unsure)
    tau_y, tau_w, families, errors = sandwich_families([pop.reveal(zs[i]) for i in refit],
                                                       base.adjustment)
    cols[refit] = np.column_stack([tau_y, tau_w, *families["sandwich"]])
    tau_y, tau_w, *triple = cols.T
    return tau_y, tau_w, {"sandwich": tuple(triple)}, {int(refit[r]): exc
                                                      for r, exc in errors.items()}


# each regime's builder result (as moment_families') for a cell's assignment rows
_FAMILIES = {"cre": _moment_families, "adjusted": _sandwich_families,
             "rem": lambda pop, zs, base: _moment_families(pop, zs, base, pop.x)}


def _score(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
           gammas: tuple[float, ...]) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-draw ratio estimates (nan where tau_w is 0) and each method's
    MethodScores in table order, for all assignment rows of ``zs`` at once:
    the cell's ``_FAMILIES`` entry scored by ``score_rows``. The first
    failing draw's first failure (its families, its sets, or a Wald interval
    longer than its FAR interval) is raised."""
    tau_y, tau_w, families, errors = _FAMILIES[base.regime](pop, zs, base)
    scored = score_rows(tau_y, tau_w, families, base, pop.x.shape[1], gammas)
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


def _cell_draws(cfg: StudyConfig, cell: int, tau_w: float, seconds: dict | None = None
                ) -> tuple[PotentialDataset, AnalysisConfig, float, np.ndarray, np.ndarray]:
    """A cell's population, analysis config, true effect, assignment rows
    and each row's rejection draw count; the covariates' balance metric is
    worked out once for all. Given ``seconds``, the population's and the
    draws' wall times are added to its "population" and "draws" entries.

    Row ``rep`` is drawn from the stream of ``default_rng((seed, cell, 1 +
    rep))``. Rather than seed one generator per row, _stream_states derives
    every row's PCG64 state in one pass and one generator is set to each in
    turn; the derived state of row 0 must equal numpy's own seeding of it,
    or the cell raises."""
    with _timed(seconds, "population"):
        pop = _population_for_cell(cfg, cell, tau_w)
    with _timed(seconds, "draws"):
        design = (DesignSpec.rem(cfg.n // 2, p_a=cfg.p_a, k=cfg.k)
                  if cfg.design == "rem" else DesignSpec.cre(cfg.n // 2))
        covariates = Covariates(pop.x)
        zs = np.zeros((cfg.reps, cfg.n), dtype=np.int64)
        attempts = np.zeros(cfg.reps, dtype=np.int64)
        entropy = _draw_entropy(cfg.seed, cell, cfg.reps)
        states = _stream_states(entropy)
        if states:
            rng = np.random.default_rng(entropy[0])
            if rng.bit_generator.state != states[0]:
                raise RuntimeError(
                    f"the PCG64 state derived for seed {cfg.seed}, cell {cell}, replication 0 "
                    f"differs from numpy {np.__version__}'s seeding of that stream")
            for rep, state in enumerate(states):
                rng.bit_generator.state = state
                draw = draw_assignment(design, covariates, rng)
                zs[rep], attempts[rep] = draw.z, draw.accepted_after
    base = AnalysisConfig(alpha=cfg.alpha, gamma=cfg.gamma[0], p_plus=cfg.p_plus,
                          adjustment=cfg.adjustment, design=design)
    return pop, base, true_sample_late(pop), zs, attempts


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


def _run_cell(cfg: StudyConfig, cell: int, tau_w: float
              ) -> tuple[list[PerformanceRow], dict[str, float]]:
    """A cell's performance rows and the wall time of each of its stages."""
    seconds = dict.fromkeys(STAGES, 0.0)
    pop, base, truth, zs, attempts = _cell_draws(cfg, cell, tau_w, seconds)
    if regime_spec(base.regime).mixture:
        with _timed(seconds, "tables"):
            # every table _score reads, built here (or found in the cache)
            # so that a build is not timed as scoring
            for alpha in (base.alpha / 2.0, *cfg.gamma):
                quantile_table(MixtureParams(k=pop.x.shape[1], a=base.design.a, alpha=alpha))
    with _timed(seconds, "scoring"):
        scored = _score(pop, zs, base, cfg.gamma)
    with _timed(seconds, "rows"):
        rows = _rows(cfg, tau_w, truth, attempts, *scored)
    return rows, seconds


def _rows(cfg: StudyConfig, tau_w: float, truth: float, attempts: np.ndarray,
          estimates: np.ndarray, scores: dict[str, MethodScores]) -> list[PerformanceRow]:
    """One performance row per method, reduced over the included draws."""
    attempts_mean = float(np.mean(attempts)) if len(attempts) else math.nan
    abs_errors = np.where(np.isfinite(estimates), np.abs(estimates - truth), math.inf)
    # _score gives each method the Wald sets, the FAR sets or their pick by
    # its strong flags, so coverage and length are worked out once for each
    wald, far = scores["wald"].sets, scores["far"].sets
    covered = wald.contains(truth), far.contains(truth)
    lengths = wald.length, far.length

    def of_sets(s: MethodScores, values: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        if s.sets is wald:
            return values[0]
        if s.sets is far:
            return values[1]
        return np.where(s.strong, *values)

    rows = []
    for m, s in scores.items():
        strong_prop = (int(np.count_nonzero(s.strong)) / len(s.strong)
                       if s.strong is not None and len(s.strong) else None)
        kept = s.included
        n_kept = int(np.count_nonzero(kept))
        if n_kept:
            errors = abs_errors[kept]
            med_err = median_extended(errors)
            mean_err = float(np.mean(errors))
            cov = float(np.mean(of_sets(s, covered)[kept]))
            med_len = median_extended(of_sets(s, lengths)[kept])
        else:
            med_err = mean_err = cov = med_len = math.nan
        kinds = np.bincount(s.sets.kind[kept], minlength=len(KINDS))
        rows.append(PerformanceRow(
            method=m, design=cfg.design, adjustment=cfg.adjustment, n=cfg.n,
            tau_w=tau_w, reps=cfg.reps, n_included=n_kept,
            median_abs_error=med_err, mean_abs_error=mean_err, coverage=cov,
            median_length=med_len, strong_prop=strong_prop,
            set_kinds=dict(zip(KINDS, kinds.tolist())),
            degenerate=int(np.count_nonzero(s.sets.degenerate[kept])),
            attempts_mean=attempts_mean))
    return rows


def run_study(cfg: StudyConfig) -> PerformanceTable:
    """Run every cell of the study; deterministic for a fixed config."""
    cells = list(enumerate(cfg.tau_w))
    if cfg.threads > 1 and len(cells) > 1:
        # imported here: it brings in multiprocessing, which would cost every
        # process that imports latekit 12-19 ms; only threaded studies use it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(_run_cell_job,
                                   [(cfg, ci, tw) for ci, tw in cells]))
    else:
        chunks = [_run_cell(cfg, ci, tw) for ci, tw in cells]
    table = PerformanceTable(stage_seconds=dict.fromkeys(STAGES, 0.0))
    for rows, seconds in chunks:
        table.rows.extend(rows)
        for stage, value in seconds.items():
            table.stage_seconds[stage] += value
    return table


def _run_cell_job(args) -> tuple[list[PerformanceRow], dict[str, float]]:
    return _run_cell(*args)
