"""Reference code the tests check the package against.

``reference_summarize``, ``reference_plain_components`` and
``reference_variance_components`` are the scalar arm-moment and
variance-family arithmetic as it was before ``summarize`` became the
one-row call of the array kernel in ``stats_core``: the kernel must give
the same bits. ``one_row_chain`` is a stratum's CRE/ReM path as it ran
before a stratum scored alone became a one-row group of
``io.score_groups``, whose ``row_families`` call builds its families:
``summarize``, then ``plain_components`` (kept here) or
``variance_components``. They invert by ``reference_spd_inverse``, the one-matrix
test, factor and inverse ``stats_core`` ran before ``spd_factors`` took
stacks. ``reference_draws``, ``reference_arm_indices`` and
``reference_table_json`` are the study's per-replication seeding, arm
split and table encoding as they were before the study passes dropped
their per-replication overhead. ``reference_r2_star`` is the stationary-point
search ``r2_star`` ran before its closed form, and ``reference_chisq_cdf``
the one-number chi-square CDF ``chisq_cdf`` computed before it took arrays.
``reference_solve_quadratic_set`` (with ``_reference_stable_roots``),
``reference_wald_ci``, ``reference_far_set``, ``reference_first_stage_test``
and ``reference_f_screen`` are the scalar set chain as it was before
``solve_quadratic_set``, ``wald_ci``, ``far_set``, ``first_stage_test`` and
``f_screen`` became one-row calls of the array kernels, with
``reference_combined_variance`` the scalar variance at the ratio it read:
the kernels must give their kinds, bits, flags and errors.
``critical_chain_wald_ci``, ``critical_chain_far_set`` and
``critical_chain_first_stage_test`` are those one-row calls as they were
next, each with its own scalar critical value (``_critical``, and for the
Wald set ``_direct_r2_of_tau``, ``r2_of_tau`` before it reversed an
overflowing quadratic), before they read a row of ``score_rows``: the calls
must give their reprs and errors but for the rows the tests declare.
``reference_evaluate_draw`` scores one study draw by that chain and
``reference_score_draws`` stacks it over a cell's draws, with
``set_arrays_from_sets`` packing its sets: ``simulation._score``, the one
batched study scorer, is checked against them draw for draw.
``run_cell`` is the study pass as it was before it stacked cells, one cell
at a time: ``cell_draws``, then ``score_cell`` (the cell's families and
one ``score_rows`` call) and ``cell_rows`` (one median, by
``reference_median_extended``, and one mean per method); the stacked pass
must give its rows field for field.
``exact_cell`` is a study cell's exact law, every assignment of its
population scored at once by ``score_cell`` and ``cell_rows``.
``reference_arm_ols`` is the per-arm OLS of adjusted study cells as it
was when it formed Q by a reduced QR of every draw's arm design,
``r_only_arm_ols`` as it was next, from that design's R factor alone,
before ``estimation.arm_fits`` fitted every arm in the population's QR
coordinates; and ``exact_arm_ols`` one draw of it in 50-digit arithmetic.
The rest are small helpers the package no longer exports.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from latekit import estimation, simulation
from latekit.confidence_sets import (KINDS, ConfidenceSet, SetArrays, solve_quadratic_set,
                                     wald_intervals)
from latekit.data_model import (
    AnalysisConfig,
    Dataset,
    DesignSpec,
    PotentialDataset,
    true_sample_late,
    validate,
)
from latekit.design import Covariates, _gathered_distances, draw_assignment
from latekit.estimation import (
    FLOORED_FAMILIES,
    Estimates,
    R2Value,
    Regime,
    VarianceAt,
    VarianceComponents,
    _common_scale,
    _one_row,
    _quad,
    r2_of_tau,
    r2_ratio,
    r2_star,
    regime_spec,
    variance_components,
)
from latekit.exceptions import (DegenerateCovariatesError, InvalidDatasetError,
                                NoIdentificationError)
from latekit.mixture import MixtureParams, lambda_quantile, normal_quantile
from latekit.simulation import (
    MethodScores,
    PerformanceRow,
    StudyConfig,
    _gamma_method,
    _method_names,
)
from latekit.stats_core import covariate_covariances, fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import F_THRESHOLD, FirstStageResult, _statistics, score_rows

_INF = math.inf


# ------------------------------------------------ scalar moments and families
def reference_spd_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    """One matrix's inverse through its Cholesky factor, after the
    eigenvalue test for numerical singularity."""
    eig = np.linalg.eigvalsh(mat)
    if eig[0] <= 0 or eig[0] / eig[-1] < 1e-12:
        raise DegenerateCovariatesError(f"{what} is numerically singular")
    chol = np.linalg.cholesky(mat)
    inv_chol = np.linalg.inv(chol)
    return inv_chol.T @ inv_chol


class ReferenceArm:
    """Means, variances, and covariate covariances within one arm."""

    def __init__(self, q_y: np.ndarray, q_w: np.ndarray, x: np.ndarray):
        nz = len(q_y)
        if nz < 2:
            raise ValueError("each arm needs at least 2 units")
        self.nz = nz
        self.y_mean = float(q_y.mean())
        self.w_mean = float(q_w.mean())
        yc = q_y - self.y_mean
        wc = q_w - self.w_mean
        xc = x - x.mean(axis=0)
        d = nz - 1
        self.s2_y = float(yc @ yc) / d
        self.s2_w = float(wc @ wc) / d
        self.s_yw = float(yc @ wc) / d
        self.s_yx = xc.T @ yc / d
        self.s_wx = xc.T @ wc / d
        self.sxx = xc.T @ xc / d

    @cached_property
    def sxx_inv(self) -> np.ndarray:
        return reference_spd_inverse(self.sxx, "within-arm covariate covariance")

    @cached_property
    def s2_y_proj(self) -> float:
        return float(self.s_yx @ self.sxx_inv @ self.s_yx)

    @cached_property
    def s2_w_proj(self) -> float:
        return float(self.s_wx @ self.sxx_inv @ self.s_wx)

    @cached_property
    def s_yw_proj(self) -> float:
        return float(self.s_yx @ self.sxx_inv @ self.s_wx)


class ReferenceSummary:
    """Both arms' moments of one assignment, and the full covariance."""

    def __init__(self, dataset: Dataset, z: np.ndarray):
        z = np.asarray(z, dtype=np.int64)
        self.n = dataset.n
        self.k = dataset.k
        treated = z == 1
        self.arm1 = ReferenceArm(dataset.y[treated], dataset.w[treated], dataset.x[treated])
        self.arm0 = ReferenceArm(dataset.y[~treated], dataset.w[~treated], dataset.x[~treated])
        self.n1 = self.arm1.nz
        self.n0 = self.arm0.nz
        self.sxx_full = covariate_covariances(dataset.x[None])[0]

    @cached_property
    def sxx_full_inv(self) -> np.ndarray:
        return reference_spd_inverse(self.sxx_full, "covariate covariance")

    @property
    def tau_y(self) -> float:
        return self.arm1.y_mean - self.arm0.y_mean

    @property
    def tau_w(self) -> float:
        return self.arm1.w_mean - self.arm0.w_mean


def reference_summarize(dataset: Dataset, z: np.ndarray) -> ReferenceSummary:
    return ReferenceSummary(dataset, z)


def reference_plain_components(summary: ReferenceSummary) -> VarianceComponents:
    a1, a0 = summary.arm1, summary.arm0
    n1, n0 = summary.n1, summary.n0
    return VarianceComponents((a1.s2_y / n1 + a0.s2_y / n0,
                               a1.s_yw / n1 + a0.s_yw / n0,
                               a1.s2_w / n1 + a0.s2_w / n0))


def reference_variance_components(summary: ReferenceSummary) -> VarianceComponents:
    plain = reference_plain_components(summary)
    if summary.k == 0:
        return plain
    a1, a0 = summary.arm1, summary.arm0
    n1, n0, n = summary.n1, summary.n0, summary.n
    sxx_inv = summary.sxx_full_inv
    dy = a1.s_yx - a0.s_yx
    dw = a1.s_wx - a0.s_wx
    corr_yy = float(dy @ sxx_inv @ dy) / n
    corr_ww = float(dw @ sxx_inv @ dw) / n
    corr_yw = float(dy @ sxx_inv @ dw) / n
    v_y, c_yw, v_w = plain.plain
    return VarianceComponents(
        plain.plain,
        rem=(v_y - corr_yy, c_yw - corr_yw, v_w - corr_ww),
        proj=(a1.s2_y_proj / n1 + a0.s2_y_proj / n0 - corr_yy,
              a1.s_yw_proj / n1 + a0.s_yw_proj / n0 - corr_yw,
              a1.s2_w_proj / n1 + a0.s2_w_proj / n0 - corr_ww),
        k=summary.k,
    )


def plain_components(summary) -> VarianceComponents:
    """The plain family alone of a ``summarize`` result, as complete
    randomization's one-row path read it."""
    a1, a0, n1, n0 = summary.arm1, summary.arm0, summary.n1, summary.n0
    return VarianceComponents(tuple(float(v[0]) for v in (
        a1.s2_y / n1 + a0.s2_y / n0, a1.s_yw / n1 + a0.s_yw / n0, a1.s2_w / n1 + a0.s2_w / n0)))


def one_row_chain(ds: Dataset, config: AnalysisConfig, offsets=()):
    """One stratum's estimates and variance components by the CRE/ReM chain
    a stratum scored alone ran before its one-row ``row_families`` call:
    ``validate``, ``summarize``, ``plain_components`` or
    ``variance_components``, and the check that the families its steps read
    are finite; it raises what that chain raised."""
    problems = validate(ds, offsets)
    if problems:
        raise InvalidDatasetError("; ".join(problems))
    spec = regime_spec(config.regime)
    summary = summarize(ds, ds.z)
    components = (variance_components(summary) if spec.family == "rem"
                  else plain_components(summary))
    read = (spec.family, spec.screen_family, *(("proj",) if spec.mixture else ()))
    if not np.isfinite([components.family(name) for name in read]).all():
        raise InvalidDatasetError("variance estimates are not finite")
    return Estimates(summary.tau_y, summary.tau_w), components


# ---------------------------------------------------------- r2 search

def _real_roots(coeffs: list[float], scale: float) -> list[float]:
    """Real roots of a polynomial of degree <= 2, highest power first.

    Leading coefficients below 1e-12 * scale are dropped (degree fallback);
    roots get two Newton polish steps.
    """
    tol = 1e-12 * max(scale, 1e-300)
    c = list(coeffs)
    while len(c) > 1 and abs(c[0]) <= tol:
        c = c[1:]
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        roots = [-c[1] / c[0]]
    else:
        a, b, cc = c
        disc = b * b - 4.0 * a * cc
        if disc < 0:
            return []
        sq = math.sqrt(disc)
        q = -(b + math.copysign(sq, b)) / 2.0
        roots = [q / a]
        if q != 0.0:
            roots.append(cc / q)
        elif disc > 0:
            roots.append(-b / a - roots[0])

    def poly(x):
        return sum(ci * x ** (deg - i) for i, ci in enumerate(c))

    def dpoly(x):
        return sum((deg - i) * ci * x ** (deg - i - 1) for i, ci in enumerate(c[:-1]))

    polished = []
    for r in roots:
        for _ in range(2):
            d1 = dpoly(r)
            if d1 != 0.0 and math.isfinite(d1):
                step = poly(r) / d1
                if math.isfinite(step):
                    r -= step
        polished.append(r)
    return polished


def reference_r2_star(components: VarianceComponents) -> R2Value:
    """Global minimum of r2_of_tau over the extended real line.

    Stationary points come from the derivative numerator of the quadratic
    ratio (a cubic whose leading coefficient in fact cancels); the limits
    at +-infinity contribute the ratio of the two leading coefficients.
    Roots of either quadratic are included so the clipped function's zeros
    are never missed.
    """
    p0, p1, p2 = components.family("proj")
    q0, q1, q2 = components.family("rem")
    if q2 <= 0.0:
        return R2Value(0.0, degenerate=True)
    scale = max(abs(v) for v in (p0, p1, p2, q0, q1, q2))
    if scale == 0.0:
        return R2Value(0.0)
    # a strictly negative denominator region pins the clipped ratio at zero;
    # a double root is removable and must not
    disc_q = q1 * q1 - q0 * q2
    if disc_q > 1e-12 * max(q1 * q1, abs(q0 * q2)):
        return R2Value(0.0, degenerate=True)
    # numerator of d/dt [(p0 - 2p1 t + p2 t^2)/(q0 - 2q1 t + q2 t^2)], expanded:
    # the t^3 terms cancel identically, leaving a quadratic.
    stationary = [2.0 * (p1 * q2 - p2 * q1),
                  2.0 * (p2 * q0 - p0 * q2),
                  2.0 * (p0 * q1 - p1 * q0)]
    candidates = _real_roots(stationary, scale * scale)
    candidates += _real_roots([p2, -2.0 * p1, p0], scale)
    best = min(max(p2 / q2, 0.0), 1.0)  # value at +-infinity
    for tau in candidates:
        if not math.isfinite(tau):
            continue
        r2 = r2_of_tau(components, tau)
        if r2.degenerate:
            continue  # isolated denominator zero, removable
        best = min(best, r2.value)
    return R2Value(best)


# ------------------------------------------------------ chi-square CDF

def reference_chisq_cdf(x: float, k: int) -> float:
    """P(k/2, x/2): series for x/2 < k/2 + 1, continued fraction otherwise."""
    a, x = k / 2.0, x / 2.0
    if x == 0:
        return 0.0
    if math.isinf(x):
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series expansion of P(a, x)
        term = 1.0 / a
        total = term
        ap = a
        for _ in range(400):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # modified Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


# ------------------------------------------------------ study bookkeeping

def reference_draws(design: DesignSpec, covariates: Covariates, seed: int, cell: int,
                    reps: int) -> tuple[np.ndarray, np.ndarray]:
    """A cell's assignment rows and rejection draw counts, replication
    ``rep`` drawn from ``default_rng((seed, cell, 1 + rep))``."""
    zs = np.zeros((reps, len(covariates.x)), dtype=np.int64)
    attempts = np.zeros(reps, dtype=np.int64)
    for rep in range(reps):
        rng = np.random.default_rng((seed, cell, 1 + rep))
        draw = draw_assignment(design, covariates, rng)
        zs[rep], attempts[rep] = draw.z, draw.accepted_after
    return zs, attempts


def reference_arm_indices(zs: np.ndarray, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """The treated and the control unit indices of every assignment row,
    each arm in index order, by a stable sort of the row."""
    order = np.argsort(1 - zs, axis=1, kind="stable")
    return order[:, :n1], order[:, n1:]


def reference_table_json(table) -> dict:
    """A PerformanceTable's ``table.json`` content, by deep-copying each row
    with ``dataclasses.asdict``."""
    def enc(v):
        if isinstance(v, float):
            if math.isinf(v):
                return "inf"
            if math.isnan(v):
                return "na"
        return v

    return {"rows": [{k: enc(v) for k, v in dataclasses.asdict(r).items()}
                     for r in table.rows]}


# ------------------------------------------------- exact finite-population law

def every_assignment(n: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """All C(n, n1) assignments: the (rows, n) 0/1 matrix, and each row's
    treated unit indices in ascending order."""
    treated = np.array(list(itertools.combinations(range(n), n1)), dtype=np.int64)
    zs = np.zeros((len(treated), n), dtype=np.int64)
    np.put_along_axis(zs, treated, 1, axis=1)
    return zs, treated


def exact_cell(cfg: StudyConfig, cell: int, tau_w: float) -> list[PerformanceRow]:
    """What ``run_study`` estimates for one cell, exactly: every assignment
    of the cell's population, each equally likely, passed as the rows of
    one ``score_cell`` call and reduced by ``cell_rows``. Under ReM an
    accepted draw is uniform on the assignments whose Mahalanobis distance
    is at most ``a``, so only those rows are kept."""
    pop, base, truth, _, _ = cell_draws(dataclasses.replace(cfg, reps=1), cell, tau_w)
    zs, treated = every_assignment(cfg.n, base.design.n1)
    if base.design.kind == "rem":
        zs = zs[_gathered_distances(Covariates(pop.x), treated) <= base.design.a]
    return cell_rows(cfg, tau_w, truth, np.ones(len(zs)), *score_cell(pop, zs, base, cfg.gamma))


# ------------------------------------------------------ one cell at a time

def cell_draws(cfg: StudyConfig, cell: int, tau_w: float
               ) -> tuple[PotentialDataset, AnalysisConfig, float, np.ndarray, np.ndarray]:
    """One cell's population, analysis config, true effect, assignment rows
    and rejection draw counts, by the study's draws for a stack of that
    cell alone."""
    base = simulation._analysis_config(cfg)
    rng, states = simulation._stack_streams(cfg, [(cell, tau_w)])
    pop, zs, attempts = simulation._cell_draws(cfg, cell, tau_w, base.design, rng, states)
    return pop, base, true_sample_late(pop), zs, attempts


def run_cell(cfg: StudyConfig, cell: int, tau_w: float) -> list[PerformanceRow]:
    """One cell's performance rows as ``run_study`` made them before it
    stacked cells: the cell's draws, one ``score_cell`` call and
    ``cell_rows``."""
    pop, base, truth, zs, attempts = cell_draws(cfg, cell, tau_w)
    return cell_rows(cfg, tau_w, truth, attempts, *score_cell(pop, zs, base, cfg.gamma))


def cell_families(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig):
    """``estimation.row_families`` of a cell's assignment rows, every row a
    draw of the one population ``pop``, as the study builds them."""
    return estimation.row_families(
        zs, np.array([[pop.y1, pop.w1], [pop.y0, pop.w0]], dtype=float), pop.x, base)


def _longer_wald_message(wald_length: float, far_length: float) -> str:
    """The error a study raises for a Wald interval longer than its FAR interval."""
    return (f"Wald interval length {wald_length!r} exceeds "
            f"the FAR interval length {far_length!r}")


def score_cell(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
               gammas: tuple[float, ...]) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-draw ratio estimates and each method's MethodScores for one
    cell's assignment rows, as the study scored a cell before it stacked
    cells: the cell's families (``cell_families``) scored by ``score_rows``,
    and the first failing draw's first failure raised."""
    tau_y, tau_w, families, errors = cell_families(pop, zs, base)
    scored = score_rows(base.regime, tau_y, tau_w, families, base, pop.x.shape[1], gammas)
    wald_sets, far = scored.wald, scored.far
    wald_len, far_len = wald_sets.length, far.length
    longer = ((far.kind == KINDS.index("interval")) & ~far.degenerate
              & (wald_len > far_len + 1e-9 * np.maximum(far_len, 1.0)))
    failed = {int(i): ArithmeticError(_longer_wald_message(float(wald_len[i]),
                                                           float(far_len[i])))
              for i in np.flatnonzero(longer)}
    failed.update(far.errors)
    failed.update(wald_sets.errors)
    failed.update(errors)
    if failed:
        raise failed[min(failed)]

    def pick(strong: np.ndarray) -> SetArrays:
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


def reference_median_extended(values: np.ndarray) -> float:
    """``simulation.median_extended`` as it was before it became the one-row
    call of the stacked reduction: one partition of the values alone at
    their lower median."""
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return math.nan
    if np.isnan(v).any():
        raise ValueError("median_extended got a nan value")
    mid = (len(v) + 1) // 2 - 1
    return float(np.partition(v, mid)[mid])


def cell_rows(cfg: StudyConfig, tau_w: float, truth: float, attempts: np.ndarray,
              estimates: np.ndarray, scores: dict[str, MethodScores]) -> list[PerformanceRow]:
    """One cell's performance rows, any number of draws: each method's own
    sets reduced over its included draws by reference_median_extended and
    np.mean."""
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
            med_err = reference_median_extended(errors)
            mean_err = float(np.mean(errors))
            cov = float(np.mean(s.sets.contains(truth)[kept]))
            med_len = reference_median_extended(s.sets.length[kept])
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


# ------------------------------------------------------ scalar set chain

def reference_interval(lo: float, hi: float, **kw) -> ConfidenceSet:
    if lo > hi:
        lo, hi = hi, lo
    return ConfidenceSet("interval", lo, hi, **kw)


def reference_two_rays(lo: float, hi: float, **kw) -> ConfidenceSet:
    if not lo < hi:
        raise ValueError("two rays must be disjoint")
    return ConfidenceSet("two_rays", lo, hi, **kw)


def reference_solve_quadratic_set(b_y: float, b_w: float, crit: float,
                                  q_y: float, q_c: float, q_w: float,
                                  method: str = "") -> ConfidenceSet:
    """Invert (b_y - t*b_w)^2 <= crit^2 * (q_y - 2t*q_c + t^2*q_w) over t."""
    ratio = b_y / b_w if b_w != 0.0 else None  # the point, where it exists
    # the estimates times 2^-e and the form times 2^-2e put the largest of
    # |b_y|, |b_w| and sqrt(max |q|) in [0.5, 1): the same set, exactly, so
    # the roots keep their bits, and no product below overflows or underflows
    _, e = math.frexp(max(abs(b_y), abs(b_w), math.sqrt(max(abs(q_y), abs(q_c), abs(q_w)))))
    b_y, b_w = math.ldexp(b_y, -e), math.ldexp(b_w, -e)
    q_y, q_c, q_w = (math.ldexp(v, -2 * e) for v in (q_y, q_c, q_w))
    crit2 = crit * crit
    a = b_w * b_w - crit2 * q_w
    b = -2.0 * (b_y * b_w - crit2 * q_c)
    c = b_y * b_y - crit2 * q_y
    tol_a = 1e-12 * max(b_w * b_w, abs(crit2 * q_w))
    disc = b * b - 4.0 * a * c
    if a > tol_a:
        if disc >= 0.0:
            lo, hi = _reference_stable_roots(a, b, c, disc)
            return reference_interval(lo, hi, method=method)
        if ratio is not None:
            # a nonnegative variance form makes disc >= 0 whenever the ratio
            # point exists; landing here is roundoff (or a degenerate
            # rerandomization family), absorbed as the ratio point itself
            return ConfidenceSet("point", ratio, ratio, method, degenerate=True)
        raise NoIdentificationError("empty confidence inversion with zero first stage")
    if a < -tol_a:
        if disc > 0.0:
            lo, hi = _reference_stable_roots(a, b, c, disc)
            return reference_two_rays(lo, hi, method=method)
        return ConfidenceSet("whole_line", method=method)
    # |a| within tolerance: linear classification b*t + c <= 0
    tol_b = 1e-12 * 2.0 * max(abs(b_y * b_w), abs(crit2 * q_c))
    if abs(b) > tol_b and b != 0.0:
        bound = -c / b
        if b > 0:
            return ConfidenceSet("left_ray", hi=bound, method=method)
        return ConfidenceSet("right_ray", lo=bound, method=method)
    tol_c = 1e-12 * max(b_y * b_y, abs(crit2 * q_y))
    if c <= tol_c:
        return ConfidenceSet("whole_line", method=method)
    if ratio is None:
        raise NoIdentificationError("empty confidence inversion with zero first stage")
    return ConfidenceSet("point", ratio, ratio, method, degenerate=True)


def _reference_stable_roots(a: float, b: float, c: float, disc: float) -> tuple[float, float]:
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * abs(a))
        return (-r, r)
    q = -(b + math.copysign(sq, b)) / 2.0
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / a - r1
    return (r1, r2) if r1 <= r2 else (r2, r1)


def reference_combined_variance(components, tau_hat: float,
                                family: str = "plain") -> VarianceAt:
    if not math.isfinite(tau_hat):
        raise ValueError("tau_hat must be finite")
    triple = components.family(family)
    v_y, c, v_w = triple
    value = v_y - 2.0 * tau_hat * c + tau_hat * tau_hat * v_w
    if family in FLOORED_FAMILIES:
        if value < 0.0:
            return VarianceAt(0.0, floored=True)
        return VarianceAt(value)
    scale = max(abs(t) for t in triple) * max(1.0, tau_hat * tau_hat)
    if value < -1e-9 * max(scale, 1e-300):
        raise ArithmeticError(f"{family} variance quadratic is negative: {value}")
    return VarianceAt(max(value, 0.0))


def reference_wald_ci(regime: str, estimates: Estimates, components,
                      config: AnalysisConfig) -> ConfidenceSet:
    spec = regime_spec(regime)
    method = f"wald[{regime}]"
    if estimates.tau_w == 0.0:
        return ConfidenceSet("whole_line", method=method, degenerate=True)
    tau = estimates.ratio
    vhat = reference_combined_variance(components, tau, spec.family)
    crit = _critical(spec, components, config, config.alpha / 2.0, lambda c: r2_of_tau(c, tau))
    radius = crit * math.sqrt(vhat.value) / abs(estimates.tau_w)
    return reference_interval(tau - radius, tau + radius, method=method,
                              degenerate=vhat.floored)


def reference_far_set(regime: str, estimates: Estimates, components,
                      config: AnalysisConfig) -> ConfidenceSet:
    spec = regime_spec(regime)
    b_y, b_w = estimates.tau_y, estimates.tau_w
    q_y, q_c, q_w = components.family(spec.family)
    crit = _critical(spec, components, config, config.alpha / 2.0, r2_star)
    return reference_solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w,
                                         method=f"far[{regime}]")


def reference_first_stage_test(regime: str, estimates: Estimates, components,
                               config: AnalysisConfig) -> FirstStageResult:
    spec = regime_spec(regime)
    var = components.family(spec.family)[2]
    if spec.mixture:
        rho = float(r2_ratio(components.family("proj")[2], var)[0])
        crit = lambda_quantile(
            MixtureParams(k=components.k, a=config.design.a, alpha=config.gamma), rho)
    else:
        crit = normal_quantile(1.0 - config.gamma)
    if var <= 0.0:
        return FirstStageResult(statistic=math.nan, critical=crit, strong=False,
                                statistic_kind=spec.statistic, degenerate=True)
    stat = (estimates.tau_w - config.p_plus) / math.sqrt(var)
    return FirstStageResult(statistic=stat, critical=crit, strong=stat > crit,
                            statistic_kind=spec.statistic)


def reference_f_screen(regime: str, estimates: Estimates, components) -> FirstStageResult:
    var = components.family(regime_spec(regime).screen_family)[2]
    if var <= 0.0:
        return FirstStageResult(statistic=math.nan, critical=F_THRESHOLD,
                                strong=False, statistic_kind="f", degenerate=True)
    stat = estimates.tau_w ** 2 / var
    return FirstStageResult(statistic=stat, critical=F_THRESHOLD,
                            strong=stat > F_THRESHOLD, statistic_kind="f")


# ------------------------------------- one-row calls with scalar critical values
def _critical(spec: Regime, components, config: AnalysisConfig, tail: float, r2) -> float:
    """One row's critical value with upper tail ``tail``: the normal quantile,
    or for a mixture regime the ReM mixture quantile at the squared
    correlation ``r2(components)[0]``."""
    if not spec.mixture:
        return normal_quantile(1.0 - tail)
    params = MixtureParams(k=components.k, a=config.design.a, alpha=tail)
    return lambda_quantile(params, float(r2(components)[0]))


def _direct_r2_of_tau(components: VarianceComponents, tau: float) -> R2Value:
    """r2_of_tau as it was before r2_at reversed an overflowing quadratic:
    the direct quotient, nan where both quadratics overflow."""
    (proj, rem), shift = _common_scale(components.family("proj"), components.family("rem"))
    with np.errstate(over="ignore", invalid="ignore"):
        value, degenerate = r2_ratio(_quad(proj, np.ldexp(tau, shift)),
                                     _quad(rem, np.ldexp(tau, shift)))
    return R2Value(float(value), bool(degenerate))


def critical_chain_wald_ci(regime: str, estimates: Estimates, components,
                           config: AnalysisConfig) -> ConfidenceSet:
    """``wald_ci`` as it was while each one-row procedure took its critical
    value from its own ``_critical`` call."""
    spec = regime_spec(regime)
    ratio = estimates.ratio  # as score_rows: 0 where not finite, whose set is an error
    crit = _critical(spec, components, config, config.alpha / 2.0,
                     lambda c: _direct_r2_of_tau(c, ratio if math.isfinite(ratio) else 0.0))
    b_y, b_w, q_y, q_c, q_w = _one_row(*estimates, *components.family(spec.family))
    return wald_intervals(b_y, b_w, crit, q_y, q_c, q_w, spec.family).entry(
        0, f"wald[{regime}]")


def critical_chain_far_set(regime: str, estimates: Estimates, components,
                           config: AnalysisConfig) -> ConfidenceSet:
    """``far_set`` as it was then."""
    spec = regime_spec(regime)
    b_y, b_w = estimates.tau_y, estimates.tau_w
    q_y, q_c, q_w = components.family(spec.family)
    crit = _critical(spec, components, config, config.alpha / 2.0, r2_star)
    return solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w, method=f"far[{regime}]")


def critical_chain_first_stage_test(regime: str, estimates: Estimates, components,
                                    config: AnalysisConfig) -> FirstStageResult:
    """``first_stage_test`` as it was then."""
    spec = regime_spec(regime)
    var = components.family(spec.family)[2]
    # under a mixture regime, at the receipt's own squared correlation
    crit = _critical(spec, components, config, config.gamma,
                     lambda c: r2_ratio(c.family("proj")[2], var))
    stat, crit = float(_statistics(estimates.tau_w, var, var, config.p_plus)[0]), float(crit)
    return FirstStageResult(statistic=stat, critical=crit, strong=stat > crit,
                            statistic_kind=spec.statistic, degenerate=math.isnan(stat))


# ------------------------------------------------------ scalar study scoring

@dataclass
class ReferenceResult:
    """Per-method outcome of a single assignment draw."""

    estimate: float
    set: ConfidenceSet
    strong: bool | None = None
    included: bool = True


def reference_evaluate_draw(ds, z, base_config: AnalysisConfig,
                            gammas: tuple[float, ...]) -> dict[str, ReferenceResult]:
    """Every study method on one draw, by the scalar chain: ``summarize`` or
    the interacted fit, then ``reference_wald_ci``, ``reference_far_set``,
    ``reference_first_stage_test`` and ``reference_f_screen``."""
    regime = base_config.regime
    family = regime_spec(regime).family
    if family == "sandwich":
        fit_y, fit_w = fit_interacted_pair(ds, z)
        estimates = Estimates(fit_y.tau_hat, fit_w.tau_hat)
        components = sandwich_cov(fit_y, fit_w, base_config.adjustment)
    else:
        summary = summarize(ds, z)
        estimates = Estimates(summary.tau_y, summary.tau_w)
        components = (variance_components(summary) if family == "rem"
                      else plain_components(summary))
    est = estimates.ratio

    wald_set = reference_wald_ci(regime, estimates, components, base_config)
    far = reference_far_set(regime, estimates, components, base_config)
    # draw-level efficiency ordering: any two-stage set (being one of the
    # two) then sits between them in length
    if (far.kind == "interval" and not far.degenerate
            and wald_set.length > far.length + 1e-9 * max(far.length, 1.0)):
        raise ArithmeticError(_longer_wald_message(wald_set.length, far.length))

    def rec(cset, strong=None, included=True):
        return ReferenceResult(estimate=est, set=cset, strong=strong, included=included)

    out = {"wald": rec(wald_set), "far": rec(far)}
    for g in gammas:
        fs = reference_first_stage_test(regime, estimates, components,
                              dataclasses.replace(base_config, gamma=g))
        out[_gamma_method(g)] = rec(wald_set if fs.strong else far, strong=fs.strong)
    fscr = reference_f_screen(regime, estimates, components)
    out["ts_f10"] = rec(wald_set if fscr.strong else far, strong=fscr.strong)
    out["wald_f10"] = rec(wald_set, strong=fscr.strong, included=fscr.strong)
    return out


def reference_score_draws(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
                          gammas: tuple[float, ...]
                          ) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-draw estimates and every method's scores, one
    ``reference_evaluate_draw`` call per assignment row of ``zs``: what
    ``simulation._score`` must return."""
    draws = [reference_evaluate_draw(pop.reveal(z), z, base, gammas) for z in zs]
    estimates = np.array([d["wald"].estimate for d in draws], dtype=float)
    scores = {}
    for m in _method_names(gammas):
        recs = [d[m] for d in draws]
        strong = (np.array([r.strong for r in recs], dtype=bool)
                  if recs and recs[0].strong is not None else None)
        scores[m] = MethodScores(set_arrays_from_sets([r.set for r in recs]), strong,
                                 np.array([r.included for r in recs], dtype=bool))
    return estimates, scores


def set_arrays_from_sets(sets: Sequence[ConfidenceSet]) -> SetArrays:
    """The SetArrays entries of the given sets, in order."""
    entries = [(KINDS.index(cs.kind), cs.lo, cs.hi, cs.degenerate) for cs in sets]
    kind, lo, hi, degenerate = zip(*entries) if entries else ((),) * 4
    return SetArrays(kind=np.array(kind, dtype=np.int8), lo=np.array(lo, dtype=float),
                     hi=np.array(hi, dtype=float),
                     degenerate=np.array(degenerate, dtype=bool), errors={})


# ------------------------------------------------------- adjusted arm OLS

def reference_arm_ols(idx: np.ndarray, yw: np.ndarray, x1: np.ndarray, expo: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The study's per-arm OLS as it was before it formed Q from R alone:
    Q and R of a reduced QR per draw, the diagonal and leverage guards on
    them, and the intercept row of R^-1."""
    design = np.take(x1, idx, axis=0)
    q, r = np.linalg.qr(design)
    lev = np.einsum("rij,rij->ri", q, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("rij,rij->rj", r, r))
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2)) / norms
        unsure = (~(diag.min(axis=1) >= estimation._ARM_GUARD * diag.max(axis=1))
                  | (lev.max(axis=1) > 1.0 - estimation._ARM_GUARD))
    r = np.where(unsure[:, None, None], np.eye(r.shape[-1]), r)
    e0_rinv = np.linalg.inv(r)[:, :1, :]
    yw_arm = np.take(yw, idx, axis=0)
    proj = np.swapaxes(q, 1, 2) @ yw_arm
    terms = (yw_arm - q @ proj) * (q @ np.swapaxes(e0_rinv, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = (1.0 - lev) ** -expo
        meat = np.swapaxes(terms * weights[:, :, None], 1, 2) @ terms
    triple = np.stack([meat[:, 0, 0], meat[:, 0, 1], meat[:, 1, 1]], axis=1)
    return (e0_rinv @ proj)[:, 0, :], triple, unsure


def r_only_arm_ols(idx: np.ndarray, yw: np.ndarray, x1: np.ndarray, expo: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``reference_arm_ols`` from R of each draw's arm design alone: Q is
    the design times the one inverse of R, whose first row is also the
    intercept's row; the diagonal guard on R, and the leverage guard on Q."""
    design = np.take(x1, idx, axis=0)
    r = np.linalg.qr(design, mode="r")
    with np.errstate(divide="ignore", invalid="ignore"):
        # the R-diagonal of the column-equilibrated design (R's column norms
        # are the design's); a zero column gives nan
        norms = np.sqrt(np.einsum("rij,rij->rj", r, r))
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2)) / norms
        unsure = ~(diag.min(axis=1) >= estimation._ARM_GUARD * diag.max(axis=1))
    r_inv = np.linalg.inv(np.where(unsure[:, None, None], np.eye(r.shape[-1]), r))
    q = design @ r_inv
    lev = np.einsum("rij,rij->ri", q, q)
    unsure |= lev.max(axis=1) > 1.0 - estimation._ARM_GUARD
    e0_rinv = r_inv[:, :1, :]
    yw_arm = np.take(yw, idx, axis=0)
    proj = np.swapaxes(q, 1, 2) @ yw_arm
    # residual times influence, per unit and outcome
    terms = (yw_arm - q @ proj) * (q @ np.swapaxes(e0_rinv, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in guarded draws
        weights = (1.0 - lev) ** -expo
        meat = np.swapaxes(terms * weights[:, :, None], 1, 2) @ terms
    triple = np.stack([meat[:, 0, 0], meat[:, 0, 1], meat[:, 1, 1]], axis=1)
    return (e0_rinv @ proj)[:, 0, :], triple, unsure


def exact_arm_ols(design: np.ndarray, yw: np.ndarray, digits: int = 50
                  ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One draw's two intercepts, and its sandwich triple under each
    leverage exponent 0, 1 and 2 (EHW, HC2, HC3), as ``arm_fits`` gives
    them, in ``digits``-digit arithmetic through the normal equations: with
    G = X'X, the coefficients G^-1 X'Y, the leverages x_i' G^-1 x_i and the
    intercept's influence row e0' G^-1 X'."""
    import mpmath

    with mpmath.workdps(digits):
        x, y = mpmath.matrix(design.tolist()), mpmath.matrix(yw.tolist())
        g_inv = mpmath.inverse(x.T * x)
        coef = g_inv * (x.T * y)
        resid = y - x * coef
        hat = x * g_inv
        meats = [[[mpmath.mpf(0)] * 2 for _ in range(2)] for _ in range(3)]
        for i in range(x.rows):
            lev = sum(hat[i, j] * x[i, j] for j in range(x.cols))
            terms = [resid[i, a] * hat[i, 0] for a in range(2)]
            for expo, meat in enumerate(meats):
                weight = (1 - lev) ** -expo
                for a in range(2):
                    for b in range(2):
                        meat[a][b] += weight * terms[a] * terms[b]
        return (np.array([float(coef[0, 0]), float(coef[0, 1])]),
                [np.array([float(m[0][0]), float(m[0][1]), float(m[1][1])]) for m in meats])


# ------------------------------------------------------------- small helpers

def random_dataset(rng, n=20, k=2, binary_w=True):
    """Small dataset with both arms populated, covariates centered."""
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[: n // 2]] = 1
    x = rng.standard_normal((n, k)) if k else np.zeros((n, 0))
    x = x - x.mean(axis=0) if k else x
    if binary_w:
        w = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    else:
        w = rng.integers(0, 2, n)
    y = x.sum(axis=1) + w * 1.5 + rng.standard_normal(n) if k else w * 1.5 + rng.standard_normal(n)
    return Dataset(z=z, w=w, y=y, x=x)


def diff_in_means(dataset: Dataset, z: np.ndarray, q: np.ndarray) -> float:
    """Treated-minus-control mean of a column."""
    z = np.asarray(z)
    q = np.asarray(q, dtype=float)
    if not (z == 1).any() or not (z == 0).any():
        raise ValueError("both arms must be nonempty")
    return float(q[z == 1].mean() - q[z == 0].mean())


def fieller_endpoints(b_y: float, b_w: float, crit: float,
                      q_y: float, q_c: float, q_w: float) -> tuple[float, float]:
    """Closed-form interval endpoints for the ratio inversion when g < 1,
    where g = crit^2 * q_w / b_w^2 measures first-stage weakness."""
    if b_w == 0.0:
        raise ValueError("g is undefined with a zero first stage")
    crit2 = crit * crit
    g = crit2 * q_w / (b_w * b_w)
    if g >= 1.0:
        raise ValueError(f"g = {g:.6g} >= 1: the set is not a finite interval")
    tau = b_y / b_w
    center = tau - crit2 * q_c / (b_w * b_w)
    inner = (q_y + tau * tau * q_w - 2.0 * tau * q_c
             - crit2 * (q_y * q_w - q_c * q_c) / (b_w * b_w))
    if inner < 0.0:
        raise ArithmeticError("negative radicand: variance form is not nonnegative")
    radius = crit * math.sqrt(inner) / abs(b_w)
    lo = (center - radius) / (1.0 - g)
    hi = (center + radius) / (1.0 - g)
    return (lo, hi) if lo <= hi else (hi, lo)


def confidence_set_from_json(d: dict) -> ConfidenceSet:
    """The ConfidenceSet a ``to_json_dict`` encoding describes."""
    def dec(v):
        if v == "inf":
            return _INF
        if v == "-inf":
            return -_INF
        return v

    lo, hi = ("hi_left", "lo_right") if d["type"] == "two_rays" else ("lo", "hi")
    return ConfidenceSet(kind=d["type"], lo=dec(d.get(lo, -_INF)), hi=dec(d.get(hi, _INF)),
                         method=d.get("method", ""))


@dataclass(frozen=True)
class UnitData:
    """One experimental unit: assignment, receipt, outcome, covariates."""

    z: int
    w: int
    y: float
    x: tuple[float, ...] = ()


def dataset_from_units(units: Sequence[UnitData]) -> Dataset:
    z = [u.z for u in units]
    w = [u.w for u in units]
    y = [u.y for u in units]
    x = [u.x for u in units]
    return Dataset(np.array(z), np.array(w), np.array(y), np.array(x, dtype=float))


def dataset_units(ds: Dataset) -> list[UnitData]:
    return [UnitData(int(z), int(w), float(y), tuple(x))
            for z, w, y, x in zip(ds.z, ds.w, ds.y, ds.x)]
