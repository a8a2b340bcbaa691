"""Monte Carlo harness: generate populations, redraw assignments, score methods.

One population is fixed per scenario cell; only the assignment vector is
redrawn across replications, matching the finite-population view in which
potential outcomes are constants. Six procedures are scored: the Wald
interval, the robust quadratic-inversion set, two-stage selections at two
first-stage levels, and the F>10 comparators.

``_score`` scores a cell in one array pass over all of its draws, by the
cell's Regime row and its ``_FAMILIES`` entry. Unadjusted cells get the bits
of scoring each draw by the scalar chain (``wald_ci``, ``far_set``,
``first_stage_test``, ``f_screen``); adjusted cells (per-arm OLS fits instead
of one interacted fit) agree with it to roundoff.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .confidence_sets import KINDS, SetArrays, solve_quadratic_sets, wald_intervals
from .data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from .design import Covariates, draw_assignment
from .estimation import _plain_family, _rem_families, r2_at, r2_ratio, r2_stars, regime_spec
from .exceptions import InfeasibleTargetError, LatekitError
from .mixture import MixtureParams, lambda_quantiles, normal_quantile
from .stats_core import (
    _FLAVOR_EXPONENT,
    _ArmArrays,
    _arm_indices,
    _arm_moments,
    fit_interacted_pair,
    sandwich_cov,
)
from .two_stage import F_THRESHOLD

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .confidence_sets import far_set, wald_ci
from .estimation import variance_components
from .stats_core import summarize
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


@dataclass
class PerformanceTable:
    rows: list[PerformanceRow] = field(default_factory=list)

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


def _arms(pop: PotentialDataset, zs: np.ndarray, n1: int, x: np.ndarray | None = None
          ) -> tuple[_ArmArrays, _ArmArrays]:
    """The treated and control arms' moments of every assignment row, by the
    kernel summarize calls for one draw, so the bits agree."""
    idx1, idx0 = _arm_indices(zs, n1)
    return _arm_moments(idx1, pop.y1, pop.w1, x), _arm_moments(idx0, pop.y0, pop.w0, x)


def _moment_families(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
                     x: np.ndarray | None = None):
    """The effect estimates and plain family of every assignment row; given
    covariates ``x``, also the ReM and projection families, with their errors."""
    n1, n0 = base.design.n1, zs.shape[1] - base.design.n1
    arm1, arm0 = _arms(pop, zs, n1, x)
    tau_y, tau_w = arm1.y_mean - arm0.y_mean, arm1.w_mean - arm0.w_mean
    if x is None:
        return tau_y, tau_w, {"plain": _plain_family(arm1, arm0, n1, n0)}, {}
    plain, rem, proj, errors = _rem_families(arm1, arm0, n1, n0, Covariates(x).sxx_inv)
    return tau_y, tau_w, {"plain": plain, "rem": rem, "proj": proj}, errors


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
    (1 - h)^-expo, and which draws the guard sends to the scalar path."""
    design = np.take(x1, idx, axis=0)
    q, r = np.linalg.qr(design)
    lev = np.einsum("rij,rij->ri", q, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the R-diagonal of the column-equilibrated design (R's column norms
        # are the design's); a zero column gives nan
        norms = np.sqrt(np.einsum("rij,rij->rj", r, r))
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2)) / norms
        unsure = (~(diag.min(axis=1) >= _ARM_GUARD * diag.max(axis=1))
                  | (lev.max(axis=1) > 1.0 - _ARM_GUARD))
    r = np.where(unsure[:, None, None], np.eye(r.shape[-1]), r)
    # the intercept's row of R^-1, and its influence row e0' R^-1 Q'
    e0_rinv = np.linalg.inv(r)[:, :1, :]
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
    design, a leverage near one) are refit by fit_interacted_pair and
    sandwich_cov, and what those raise is kept per draw.
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
    errors = {}
    for i in np.flatnonzero(unsure):
        try:
            fit_y, fit_w = fit_interacted_pair(pop.reveal(zs[i]), zs[i])
            cov = sandwich_cov(fit_y, fit_w, base.adjustment)
        except LatekitError as exc:  # raised in draw order by _score
            errors[int(i)] = exc
            cols[i] = (0.0, 1.0, 0.0, 0.0, 0.0)  # a placeholder that scores quietly
            continue
        cols[i] = (fit_y.tau_hat, fit_w.tau_hat, *cov.family("sandwich"))
    tau_y, tau_w, *triple = cols.T
    return tau_y, tau_w, {"sandwich": tuple(triple)}, errors


# each regime's (tau_y, tau_w, families, errors) of a cell's assignment rows:
# a per-draw (v_y, c_yw, v_w) triple per family name, and what a draw raises
_FAMILIES = {"cre": _moment_families, "adjusted": _sandwich_families,
             "rem": lambda pop, zs, base: _moment_families(pop, zs, base, pop.x)}


def _score(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
           gammas: tuple[float, ...]) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-draw ratio estimates (nan where tau_w is 0) and each method's
    MethodScores in table order, for all assignment rows of ``zs`` at once,
    read from the cell's Regime row as the scalar chain reads it: ``family``
    for the Wald, FAR and first-stage triple, ``screen_family`` for the F>10
    screen, and ``mixture`` for the critical values."""
    spec = regime_spec(base.regime)
    tau_y, tau_w, families, errors = _FAMILIES[base.regime](pop, zs, base)
    triple, screen_var = families[spec.family], families[spec.screen_family][2]
    fs_var = triple[2]
    tail = base.alpha / 2.0
    if spec.mixture:
        proj = families["proj"]

        def lam(alpha, rho):
            return lambda_quantiles(
                MixtureParams(k=pop.x.shape[1], a=base.design.a, alpha=alpha), rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            # wald_ci: the mixture quantile at r2_of_tau at the ratio
            r2, _ = r2_at(proj, triple, np.where(tau_w != 0.0, tau_y / tau_w, 0.0))
        # first_stage_test: the mixture quantile at the receipt's own ratio
        rho, _ = r2_ratio(proj[2], fs_var)
        wald_crit, far_crit = lam(tail, r2), lam(tail, r2_stars(proj, triple)[0])
        fs_crit = {g: lam(g, rho) for g in gammas}
    else:
        wald_crit = far_crit = normal_quantile(1.0 - tail)
        fs_crit = {g: normal_quantile(1.0 - g) for g in gammas}
    wald_sets = wald_intervals(tau_y, tau_w, wald_crit, *triple, family=spec.family)
    far = solve_quadratic_sets(tau_y, tau_w, far_crit, *triple)
    wald_len, far_len = wald_sets.length, far.length
    longer = ((far.kind == KINDS.index("interval")) & ~far.degenerate
              & (wald_len > far_len + 1e-9 * np.maximum(far_len, 1.0)))
    # the scalar path raises the first failing draw's first failure
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
        t_stat = (tau_w - base.p_plus) / np.sqrt(fs_var)
        f_stat = tau_w ** 2 / screen_var
        estimates = np.where(tau_w != 0.0, tau_y / tau_w, math.nan)
    every = np.ones(len(tau_y), dtype=bool)
    scores = {"wald": MethodScores(wald_sets, None, every),
              "far": MethodScores(far, None, every)}
    for g, crit in fs_crit.items():
        # a nonpositive variance makes the first stage weak
        strong = (fs_var > 0.0) & (t_stat > crit)
        scores[_gamma_method(g)] = MethodScores(pick(strong), strong, every)
    f_strong = (screen_var > 0.0) & (f_stat > F_THRESHOLD)
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


def _cell_draws(cfg: StudyConfig, cell: int, tau_w: float
                ) -> tuple[PotentialDataset, AnalysisConfig, float, np.ndarray, np.ndarray]:
    """A cell's population, analysis config, true effect, assignment rows
    and each row's rejection draw count, each row drawn from its own seeded
    stream; the covariates' balance metric is worked out once for all."""
    pop = _population_for_cell(cfg, cell, tau_w)
    design = (DesignSpec.rem(cfg.n // 2, p_a=cfg.p_a, k=cfg.k)
              if cfg.design == "rem" else DesignSpec.cre(cfg.n // 2))
    base = AnalysisConfig(alpha=cfg.alpha, gamma=cfg.gamma[0], p_plus=cfg.p_plus,
                          adjustment=cfg.adjustment, design=design)
    covariates = Covariates(pop.x)
    zs = np.zeros((cfg.reps, cfg.n), dtype=np.int64)
    attempts = np.zeros(cfg.reps, dtype=np.int64)
    for rep, entropy in enumerate(_draw_entropy(cfg.seed, cell, cfg.reps)):
        draw = draw_assignment(design, covariates, np.random.default_rng(entropy))
        zs[rep], attempts[rep] = draw.z, draw.accepted_after
    return pop, base, true_sample_late(pop), zs, attempts


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


def _run_cell(cfg: StudyConfig, cell: int, tau_w: float) -> list[PerformanceRow]:
    pop, base, truth, zs, attempts = _cell_draws(cfg, cell, tau_w)
    return _rows(cfg, tau_w, truth, attempts, *_score(pop, zs, base, cfg.gamma))


def _rows(cfg: StudyConfig, tau_w: float, truth: float, attempts: np.ndarray,
          estimates: np.ndarray, scores: dict[str, MethodScores]) -> list[PerformanceRow]:
    """One performance row per method, reduced over the included draws."""
    attempts_mean = float(np.mean(attempts)) if len(attempts) else math.nan
    abs_errors = np.where(np.isfinite(estimates), np.abs(estimates - truth), math.inf)
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
            cov = float(np.mean(s.sets.contains(truth)[kept]))
            med_len = median_extended(s.sets.length[kept])
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
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(_run_cell_job,
                                   [(cfg, ci, tw) for ci, tw in cells]))
    else:
        chunks = [_run_cell(cfg, ci, tw) for ci, tw in cells]
    table = PerformanceTable()
    for chunk in chunks:
        table.rows.extend(chunk)
    return table


def _run_cell_job(args) -> list[PerformanceRow]:
    return _run_cell(*args)
