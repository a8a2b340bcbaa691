"""Reference code the tests check the package against.

``reference_summarize``, ``reference_plain_components`` and
``reference_variance_components`` are the scalar arm-moment and
variance-family arithmetic as it was before ``summarize`` became the
one-row call of the array kernel in ``stats_core``: the kernel must give
the same bits. They invert by ``reference_spd_inverse``, the one-matrix
test, factor and inverse ``stats_core`` ran before ``spd_factors`` took
stacks. ``reference_draws``, ``reference_arm_indices`` and
``reference_table_json`` are the study's per-replication seeding, arm
split and table encoding as they were before the study passes dropped
their per-replication overhead. ``reference_r2_star`` is the stationary-point
search ``r2_star`` ran before its closed form, and ``reference_chisq_cdf``
the one-number chi-square CDF ``chisq_cdf`` computed before it took arrays.
``reference_evaluate_draw`` scores one study draw by the scalar chain
(``wald_ci``, ``far_set``, ``first_stage_test``, ``f_screen``) and
``reference_score_draws`` stacks it over a cell's draws, with
``set_arrays_from_sets`` packing its sets: the batched study passes in
``simulation._BATCHED`` are checked against them draw for draw. The rest
are small helpers the package no longer exports.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from latekit.confidence_sets import ConfidenceSet, SetArrays, _entry, far_set, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, PotentialDataset
from latekit.design import Covariates, draw_assignment
from latekit.estimation import (
    Estimates,
    R2Value,
    VarianceComponents,
    plain_components,
    r2_of_tau,
    regime_spec,
    variance_components,
)
from latekit.exceptions import DegenerateCovariatesError
from latekit.simulation import (
    MethodScores,
    _gamma_method,
    _longer_wald_message,
    _method_names,
)
from latekit.stats_core import covariate_covariance, fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import f_screen, first_stage_test

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
        self.sxx_full = covariate_covariance(dataset.x)

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
    return VarianceComponents(v_y=a1.s2_y / n1 + a0.s2_y / n0,
                              v_w=a1.s2_w / n1 + a0.s2_w / n0,
                              c_yw=a1.s_yw / n1 + a0.s_yw / n0)


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
    return VarianceComponents(
        v_y=plain.v_y, v_w=plain.v_w, c_yw=plain.c_yw, k=summary.k,
        v_y_rem=plain.v_y - corr_yy,
        v_w_rem=plain.v_w - corr_ww,
        c_yw_rem=plain.c_yw - corr_yw,
        v_y_proj=a1.s2_y_proj / n1 + a0.s2_y_proj / n0 - corr_yy,
        v_w_proj=a1.s2_w_proj / n1 + a0.s2_w_proj / n0 - corr_ww,
        c_yw_proj=a1.s_yw_proj / n1 + a0.s_yw_proj / n0 - corr_yw,
    )


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
    p0, p1, p2 = components.proj_family()
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
    the interacted fit, then ``wald_ci``, ``far_set``, ``first_stage_test``
    and ``f_screen``."""
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
    est = estimates.wald().tau_hat

    wald_set = wald_ci(regime, estimates, components, base_config)
    far = far_set(regime, estimates, components, base_config)
    # draw-level efficiency ordering: any two-stage set (being one of the
    # two) then sits between them in length
    if (far.kind == "interval" and not far.degenerate
            and wald_set.length > far.length + 1e-9 * max(far.length, 1.0)):
        raise ArithmeticError(_longer_wald_message(wald_set.length, far.length))

    def rec(cset, strong=None, included=True):
        return ReferenceResult(estimate=est, set=cset, strong=strong, included=included)

    out = {"wald": rec(wald_set), "far": rec(far)}
    for g in gammas:
        fs = first_stage_test(regime, estimates, components,
                              dataclasses.replace(base_config, gamma=g))
        out[_gamma_method(g)] = rec(wald_set if fs.strong else far, strong=fs.strong)
    fscr = f_screen(regime, estimates, components)
    out["ts_f10"] = rec(wald_set if fscr.strong else far, strong=fscr.strong)
    out["wald_f10"] = rec(wald_set, strong=fscr.strong, included=fscr.strong)
    return out


def reference_score_draws(pop: PotentialDataset, zs: np.ndarray, base: AnalysisConfig,
                          gammas: tuple[float, ...]
                          ) -> tuple[np.ndarray, dict[str, MethodScores]]:
    """Per-draw estimates and every method's scores, one
    ``reference_evaluate_draw`` call per assignment row of ``zs``: what the
    batched passes in ``simulation._BATCHED`` must return."""
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
    entries = [_entry(cs) for cs in sets]
    kind, lo, hi, degenerate = zip(*entries) if entries else ((),) * 4
    return SetArrays(kind=np.array(kind, dtype=np.int8), lo=np.array(lo, dtype=float),
                     hi=np.array(hi, dtype=float),
                     degenerate=np.array(degenerate, dtype=bool), errors={})


# ------------------------------------------------------------- small helpers

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

    return ConfidenceSet(kind=d["type"], lo=dec(d.get("lo", -_INF)),
                         hi=dec(d.get("hi", _INF)),
                         hi_left=dec(d.get("hi_left")),
                         lo_right=dec(d.get("lo_right")),
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
