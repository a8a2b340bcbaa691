"""Monte Carlo harness: generate populations, redraw assignments, score methods.

One population is fixed per scenario cell; only the assignment vector is
redrawn across replications, matching the finite-population view in which
potential outcomes are constants. Six procedures are scored: the Wald
interval, the robust quadratic-inversion set, two-stage selections at two
first-stage levels, and the F>10 comparators.
"""
from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .confidence_sets import far_set, wald_ci
from .data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from .design import draw_assignment
from .estimation import Estimates, variance_components, wald
from .exceptions import InfeasibleTargetError
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
    seed: int = 0

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
        sxx = xc.T @ xc / (n - 1)
        sxx_inv = np.linalg.inv(sxx)

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


@dataclass
class ReplicationResult:
    """Per-method outcome of a single assignment draw."""

    estimate: float
    length: float
    covered: bool
    strong: bool | None = None
    included: bool = True


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

    def methods(self) -> list[str]:
        out = ["wald", "far"]
        out += [_gamma_method(g) for g in self.gamma]
        out += ["ts_f10", "wald_f10"]
        return out


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

        return {"rows": [{k: enc(v) for k, v in dataclasses.asdict(r).items()}
                         for r in self.rows]}


def median_extended(values: np.ndarray) -> float:
    """Lower median, so the result is infinite exactly when more than half
    of the values are."""
    if len(values) == 0:
        return math.nan
    return float(np.quantile(np.asarray(values, dtype=float), 0.5,
                             method="inverted_cdf"))


def _evaluate_draw(ds, z, truth, base_config: AnalysisConfig,
                   gammas: tuple[float, ...]) -> dict[str, ReplicationResult]:
    regime = base_config.regime
    if regime == "adjusted":
        fit_y, fit_w = fit_interacted_pair(ds, z)
        estimates = Estimates(fit_y.tau_hat, fit_w.tau_hat)
        components = sandwich_cov(fit_y, fit_w, base_config.adjustment)
        point = wald(estimates.tau_y, estimates.tau_w, "adjusted")
    else:
        summary = summarize(ds, z)
        estimates = Estimates(summary.tau_y, summary.tau_w)
        components = variance_components(summary)
        point = wald(estimates.tau_y, estimates.tau_w)
    err = abs(point.tau_hat - truth) if point.defined else math.inf
    est = point.tau_hat if point.defined else math.nan

    wald_set = wald_ci(regime, estimates, components, base_config)
    far = far_set(regime, estimates, components, base_config)
    # draw-level efficiency ordering: any two-stage set (being one of the
    # two) then sits between them in length
    if (far.kind == "interval" and not far.degenerate
            and wald_set.length > far.length + 1e-9 * max(far.length, 1.0)):
        raise ArithmeticError(f"Wald interval length {wald_set.length!r} exceeds "
                              f"the FAR interval length {far.length!r}")

    def rec(cset, strong=None, included=True):
        return ReplicationResult(estimate=est, length=cset.length,
                                 covered=cset.contains(truth), strong=strong,
                                 included=included)

    out = {"wald": rec(wald_set), "far": rec(far)}
    for g in gammas:
        fs = first_stage_test(regime, estimates, components,
                              dataclasses.replace(base_config, gamma=g))
        out[_gamma_method(g)] = rec(wald_set if fs.strong else far, strong=fs.strong)
    fscr = f_screen(regime, estimates, components)
    out["ts_f10"] = rec(wald_set if fscr.strong else far, strong=fscr.strong)
    out["wald_f10"] = rec(wald_set, strong=fscr.strong, included=fscr.strong)
    return out


def _population_for_cell(cfg: StudyConfig, cell: int, tau_w: float) -> PotentialDataset:
    dgp = DgpConfig(n=cfg.n, tau_w_target=tau_w, k=cfg.k, seed=cfg.seed)
    for attempt in range(_POP_RETRIES):
        rng = np.random.default_rng((cfg.seed, cell, 0, attempt))
        try:
            return generate_population(dgp, rng)
        except InfeasibleTargetError:
            continue
    raise InfeasibleTargetError(
        f"no feasible population for tau_w={tau_w} in {_POP_RETRIES} attempts")


def _run_cell(cfg: StudyConfig, cell: int, tau_w: float) -> list[PerformanceRow]:
    pop = _population_for_cell(cfg, cell, tau_w)
    design = (DesignSpec.rem(cfg.n // 2, p_a=cfg.p_a, k=cfg.k)
              if cfg.design == "rem" else DesignSpec.cre(cfg.n // 2))
    base = AnalysisConfig(alpha=cfg.alpha, gamma=cfg.gamma[0], p_plus=cfg.p_plus,
                          adjustment=cfg.adjustment, design=design)
    truth = true_sample_late(pop)
    methods = cfg.methods()
    results: dict[str, list[ReplicationResult]] = {m: [] for m in methods}
    for rep in range(cfg.reps):
        rng = np.random.default_rng((cfg.seed, cell, 1 + rep))
        z = draw_assignment(design, pop.x, rng).z
        ds = pop.reveal(z)
        for m, r in _evaluate_draw(ds, z, truth, base, cfg.gamma).items():
            results[m].append(r)
    rows = []
    for m in methods:
        recs = results[m]
        strong_vals = [r.strong for r in recs if r.strong is not None]
        strong_prop = (sum(strong_vals) / len(strong_vals)) if strong_vals else None
        kept = [r for r in recs if r.included]
        if kept:
            errors = np.array([abs(r.estimate - truth) if math.isfinite(r.estimate)
                               else math.inf for r in kept])
            lengths = np.array([r.length for r in kept])
            covered = np.array([r.covered for r in kept])
            med_err = median_extended(errors)
            mean_err = float(np.mean(errors))
            cov = float(np.mean(covered))
            med_len = median_extended(lengths)
        else:
            med_err = mean_err = cov = med_len = math.nan
        rows.append(PerformanceRow(
            method=m, design=cfg.design, adjustment=cfg.adjustment, n=cfg.n,
            tau_w=tau_w, reps=cfg.reps, n_included=len(kept),
            median_abs_error=med_err, mean_abs_error=mean_err, coverage=cov,
            median_length=med_len, strong_prop=strong_prop))
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
