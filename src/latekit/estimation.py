"""Point estimators and the variance/correlation functionals built on moments.

Three quadratic families appear, each a function q(t) = v_y - 2t*c + t^2*v_w
of a candidate ratio t:

* the plain family, sums of within-arm variances over arm sizes;
* the rerandomization family, which subtracts the across-arm projection
  correction and is pointwise no larger than the plain family;
* the projection family, variances of fitted linear projections, whose
  ratio to the rerandomization family is the squared correlation fed to
  the mixture quantile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import AnalysisConfig, Dataset, by_length
from .design import Covariates
from .exceptions import LatekitError, unstored
from .stats_core import (_FLAVOR_EXPONENT, MomentSummary, _ArmArrays, _arm_indices, _arm_moments,
                         _row_forms, covariate_covariances, fit_interacted_pair,
                         sandwich_cov, spd_inverses)


class Regime(NamedTuple):
    """What sets one inferential regime apart from the others; the families
    are 'plain' or 'rem' of a VarianceComponents, or 'sandwich' of a
    SandwichCov."""

    family: str  # variance triple the Wald, FAR and first-stage steps read
    screen_family: str  # variance triple the F>10 screen reads
    mixture: bool  # critical values from the ReM mixture, not the normal
    statistic: str  # label of the first-stage statistic
    reads: tuple[str, ...]  # every family the steps read, in the order a missing one is named


REGIMES = {
    "cre": Regime("plain", "plain", False, "t", ("plain",)),
    "rem": Regime("rem", "plain", True, "t_rem", ("rem", "plain", "proj")),
    "adjusted": Regime("sandwich", "sandwich", False, "t_adj", ("sandwich",)),
}


def regime_spec(regime: str) -> Regime:
    """The table entry of 'cre', 'rem' or 'adjusted'."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime: {regime!r}")
    return REGIMES[regime]


class Estimates(NamedTuple):
    """Difference-in-means (or regression-adjusted) effect estimates."""

    tau_y: float
    tau_w: float

    @property
    def ratio(self) -> float:
        """The Wald estimate tau_y / tau_w of the complier effect; nan when
        the first-stage estimate is exactly zero."""
        return self.tau_y / self.tau_w if self.tau_w != 0.0 else math.nan


@dataclass(frozen=True)
class VarianceComponents:
    """Every (co)variance triple (v_y, c_yw, v_w) the confidence procedures
    consume: the plain, rerandomization and projection families.

    The rerandomization and projection families are None when the dataset
    has no covariates.
    """

    plain: tuple[float, float, float]
    rem: tuple[float, float, float] | None = None
    proj: tuple[float, float, float] | None = None
    k: int = 0

    def family(self, name: str) -> tuple[float, float, float]:
        """(v_y, c_yw, v_w) for 'plain', 'rem' or 'proj'."""
        if name not in ("plain", "rem", "proj"):
            raise ValueError(f"no {name!r} family in VarianceComponents")
        if getattr(self, name) is None:
            what = "rerandomization" if name == "rem" else "projection"
            raise ValueError(f"{what} family needs covariates")
        return getattr(self, name)


def _forms(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u s u, u s v, v s v) of every row, a (v_y, c_yw, v_w) triple."""
    return tuple(_row_forms(a, s, b) for a, b in ((u, u), (u, v), (v, v)))


def _arm_projections(*arms: _ArmArrays):
    """The triple of the arms' fitted projections on their covariates, the
    rows of each arm after those of the one before, with every covariance
    inverted in one stacked call; and the error each row (numbered within
    its arm) with a singular arm covariance raises."""
    rows = len(arms[0].sxx)
    inv, singular = spd_inverses(np.concatenate([arm.sxx for arm in arms]),
                                 "within-arm covariate covariance")
    s_yx, s_wx = (np.concatenate([getattr(arm, name) for arm in arms])
                  for name in ("s_yx", "s_wx"))
    return _forms(s_yx, inv, s_wx), {i % rows: exc for i, exc in singular.items()}


def moment_families(arm1: _ArmArrays, arm0: _ArmArrays, n1: int, n0: int,
                    sxx_inv: np.ndarray | None = None):
    """The effect estimates, the family triples by name and the errors of
    every row of the two arms: the plain family; given the inverse full
    covariate covariance (one, or one per row), also the rerandomization and
    projection families, and the error of each row with a singular arm one."""
    tau_y, tau_w = arm1.y_mean - arm0.y_mean, arm1.w_mean - arm0.w_mean
    plain = (arm1.s2_y / n1 + arm0.s2_y / n0, arm1.s_yw / n1 + arm0.s_yw / n0,
             arm1.s2_w / n1 + arm0.s2_w / n0)
    if sxx_inv is None:
        return tau_y, tau_w, {"plain": plain}, {}
    n, rows = n1 + n0, len(arm1.sxx)
    corr = [c / n for c in _forms(arm1.s_yx - arm0.s_yx, sxx_inv, arm1.s_wx - arm0.s_wx)]
    projs, errors = _arm_projections(arm1, arm0)
    return tau_y, tau_w, {
        "plain": plain, "rem": tuple(p - c for p, c in zip(plain, corr)),
        "proj": tuple(f[:rows] / n1 + f[rows:] / n0 - c for f, c in zip(projs, corr))}, errors


# a fit is left to the scalar path (which raises at 1e-10 and 1e-12) when its
# population's equilibrated R-diagonal ratio is below this, its trace(M^-1) is
# not in (0, 1/this), or a leverage is this close to one
_ARM_GUARD = 1e-6


def _spd_inverses(mats: np.ndarray) -> np.ndarray:
    """The inverse of every symmetric positive definite matrix of a stack by
    the sweep operator, pivot by pivot over the stack held last (for 6 x 6,
    2-3 times as fast as LAPACK per matrix); inf/nan where a pivot is 0."""
    swept = np.ascontiguousarray(mats.transpose(1, 2, 0))
    for k in range(len(swept)):
        pivot = 1.0 / swept[k, k]
        row = swept[k] * pivot
        swept -= swept[:, k, None] * row
        swept[k], swept[:, k], swept[k, k] = row, row, -pivot
    return np.negative(swept.transpose(2, 0, 1), order="C")  # all pivots swept: -M^-1


def _per_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for the (m, p) rows of ``a``: one 2-D product for one
    population's (p, n) ``b``, else row j by entry j % rows of a stack."""
    if b.ndim == 2:
        return a @ b
    return (a.reshape(-1, len(b), 1, a.shape[-1]) @ b).reshape(len(a), -1)


def arm_fits(x: np.ndarray, treated: np.ndarray, yws: np.ndarray, expo: int):
    """OLS of an outcome and a receipt on [x, 1] (covariates, then ones)
    within the arm each 0/1 row of ``treated`` marks, on ``yws[0]``
    (outcome and receipt rows), and within its complement, on ``yws[1]``:
    each arm's two intercepts, its share of the sandwich triple
    (v_y, c_yw, v_w) with leverage weights (1 - h)^-expo, and whether
    _ARM_GUARD leaves it to the scalar path, as (2, rows, ...) arrays. ``x``
    is one population's (n, K) and ``yws`` (2, 2, n), or one per row:
    (rows, n, K) and (2, 2, rows, n), factored in one stacked QR call.
    With [x, 1] = QR, an arm's Gram matrix is R'MR for M = sum s_i q_i q_i':
    in Q's coordinates its coefficients are M^-1 b (b = sum s_i q_i y_i),
    its leverages q_i' M^-1 q_i, and its intercept, the last coefficient,
    e'M^-1 b / R_pp with influence row e'M^-1 q_i / R_pp. No arm is gathered
    or factored."""
    rows, n = treated.shape
    q, r = np.linalg.qr(np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1))
    p, pop = q.shape[-1], q.shape[:-1]  # pop: (n,) or (rows, n)
    q_t = np.ascontiguousarray(np.swapaxes(q, -1, -2))  # matmuls on a transposed view: ~1.5x slower
    qq = (q[..., :, None] * q[..., None, :]).reshape(*pop, p * p)
    masks = np.concatenate([treated, 1 - treated]).astype(float)
    # M and b' (2 x p) of both arms: the marked ones' by one matmul, the
    # complements' as the population's less those
    ywq = np.moveaxis(yws.reshape(4, *pop), 0, -1)[..., None] * q[..., None, :]
    rhs = np.concatenate([qq, ywq.reshape(*pop, -1)], axis=-1)
    moments = _per_row(masks[:rows], rhs)
    moments = np.concatenate([moments, rhs.sum(axis=-2) - moments])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only in unsure fits
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) / np.linalg.norm(r, axis=-2)
        inv = _spd_inverses(moments[:, :p * p].reshape(-1, p, p))
        gamma = np.concatenate([moments[:rows, p * p:p * p + 2 * p],
                                moments[rows:, p * p + 2 * p:]]).reshape(-1, 2, p) @ inv
        trace = np.trace(inv, axis1=1, axis2=2).reshape(2, rows)
        unsure = ~((diag.min(axis=-1) >= _ARM_GUARD * diag.max(axis=-1)) & (trace > 0.0)
                   & (trace < 1.0 / _ARM_GUARD)).ravel()
        # 1 less the leverages, and the influence rows squared over the
        # weights, zero off the arm; each (2 * rows, n) array is freed once
        # read, for a traced peak under 60 bytes per entry of ``treated``
        lev = _per_row(inv.reshape(-1, p * p), np.swapaxes(qq, -1, -2))
        lev *= masks
        unsure |= lev.max(axis=1) > 1.0 - _ARM_GUARD
        np.subtract(1.0, lev, out=lev)
        infl = _per_row(inv[:, -1], q_t)
        infl *= masks
        infl *= infl
        for _ in range(expo):
            infl /= lev
        del lev, masks, moments
        # residuals: outcome rows, then receipt rows
        resid = _per_row(np.swapaxes(gamma, 0, 1).reshape(-1, p), q_t).reshape(2, 2, rows, n)
        np.subtract(np.swapaxes(yws, 0, 1).reshape(2, 2, -1, n), resid, out=resid)
        r_y, r_w = resid.reshape(2, -1, n)
        v_w = np.einsum("ij,ij,ij->i", infl, r_w, r_w)
        infl *= r_y
        r_pp = r[..., -1, -1].reshape(-1, 1)
        triple = np.stack([np.einsum("ij,ij->i", infl, r_y), np.einsum("ij,ij->i", infl, r_w),
                           v_w], axis=-1).reshape(2, rows, 3) / (r_pp * r_pp)
    return gamma[:, :, -1].reshape(2, rows, 2) / r_pp, triple, unsure.reshape(2, rows)


def _strata_arms(treated: np.ndarray, yws: np.ndarray, before: np.ndarray, starts: np.ndarray,
                 n1: np.ndarray, n0: np.ndarray, x: np.ndarray | None
                 ) -> tuple[_ArmArrays, _ArmArrays]:
    """The treated and the control arm of every stratum from ``starts``
    with ``n1`` and ``n0`` units in each, from one _arm_moments call per arm
    size over the (2, N) observed ``yws``; covariate terms too, given ``x``.
    ``treated`` marks the treated units of the whole column and ``before``
    counts them before each unit."""
    units = np.concatenate([treated.nonzero()[0], (~treated).nonzero()[0]])  # treated first
    sizes = np.concatenate([n1, n0])  # every treated arm, then every control arm
    first = before[starts]  # each stratum's first treated unit among units
    parts, order = [], []
    for arms, idx in by_length(np.concatenate([first, before[-1] + starts - first]), sizes):
        parts.append(_arm_moments(units[idx], *yws, x))
        order.append(arms)
    back = np.concatenate(order).argsort()
    both = [None if field[0] is None else np.concatenate(field)[back] for field in zip(*parts)]
    return (_ArmArrays(*(f if f is None else f[:len(n1)] for f in both)),
            _ArmArrays(*(f if f is None else f[len(n1):] for f in both)))


def row_families(zs: np.ndarray, yws: np.ndarray, x: np.ndarray, config: AnalysisConfig,
                 lengths: np.ndarray | None = None, starts: np.ndarray | None = None):
    """The effect estimates, the family triples by name and the error each
    row raises, as ``config``'s REGIMES entry reads them. Without
    ``lengths``, a row is a 0/1 assignment row of (rows, n) ``zs``, and the
    rows share one population (a study cell): (n, K) ``x``, whose treated
    and control outcome and receipt are the (2, 2, n) ``yws``. With
    ``lengths``, a row is a stratum, a population of its own (analyze's
    strata): the ``lengths`` units from ``starts`` of the (N,) assignment
    column ``zs``, 0/1 in every such stratum, with their (2, N) observed
    outcome and receipt ``yws`` and (N, K) covariates ``x``; units outside
    them are not read. Moments come from one _arm_moments call per arm size
    (by_length, so each arm keeps its own bits) and, under ReM, the inverse
    full covariance of each population, all in one spd_inverses call; the
    sandwich family from one arm_fits call per population size (the
    interacted fit is the two arms' fits, Lin 2013), whose unsure rows, and
    all with an arm of at most K + 1 units, are refit one at a time by
    fit_interacted_pair and sandwich_cov, or keep what that raises and the
    placeholder (0, 1, 0, 0, 0)."""
    spec, k = regime_spec(config.regime), x.shape[-1]
    if lengths is None:
        rows, n = zs.shape
        n1 = int(zs[:1].sum())
        n0 = n - n1
    else:
        lengths, starts = np.asarray(lengths, dtype=np.int64), np.asarray(starts)
        treated = zs != 0
        before = np.zeros(len(zs) + 1, dtype=np.int64)  # treated units before each unit
        np.add.accumulate(treated, dtype=np.int64, out=before[1:])
        n1 = before[starts + lengths] - before[starts]
        rows, n0 = len(lengths), lengths - n1

    def data(i):  # row i's assignment, outcome and receipt rows, and covariates
        if lengths is None:
            return zs[i], yws, x
        part = slice(starts[i], starts[i] + lengths[i])
        return zs[part], yws[:, part][None].repeat(2, axis=0), x[part]
    sxx_inv, errors = None, {}
    if spec.family == "sandwich":
        cols, unsure = np.zeros((rows, 5)), np.ones(rows, dtype=bool)
        if lengths is None:
            fits = [(slice(None), x, zs, yws)] if min(n1, n0) > k + 1 else []
        else:
            fit = (np.minimum(n1, n0) > k + 1).nonzero()[0]
            fits = [(fit[members], x.take(idx, axis=0), zs[idx],
                     yws[:, idx][None].repeat(2, axis=0))  # the arms' observed outcomes
                    for members, idx in by_length(starts[fit], lengths[fit])]
        for members, *args in fits:
            ints, triples, arm_unsure = arm_fits(*args, _FLAVOR_EXPONENT[config.adjustment])
            cols[members] = np.concatenate([ints[0] - ints[1], triples[0] + triples[1]], axis=1)
            unsure[members] = arm_unsure[0] | arm_unsure[1]
        for i in unsure.nonzero()[0].tolist():
            z, (treated, control), xi = data(i)
            y, w = np.where(z == 1, treated, control)
            try:
                fit_y, fit_w = fit_interacted_pair(Dataset(z, w, y, xi), z)
                cols[i] = (fit_y.tau_hat, fit_w.tau_hat,
                           *sandwich_cov(fit_y, fit_w, config.adjustment).family("sandwich"))
            except LatekitError as exc:
                cols[i], errors[i] = (0.0, 1.0, 0.0, 0.0, 0.0), exc.with_traceback(None)
        tau_y, tau_w, *triple = cols.T
        return tau_y, tau_w, {"sandwich": tuple(triple)}, errors
    xs = x if spec.mixture else None
    with np.errstate(over="ignore", invalid="ignore"):  # extreme covariate scales overflow
        if lengths is None:
            arms = [_arm_moments(i, *yw, xs) for i, yw in zip(_arm_indices(zs, n1), yws)]
            if spec.mixture:  # the population's singular covariance raises, as its draws do
                sxx_inv = Covariates(x).sxx_inv
        else:
            arms = _strata_arms(treated, yws, before, starts, n1, n0, xs)
            if spec.mixture:
                covs = np.empty((rows, k, k))
                for members, idx in by_length(starts, lengths):
                    covs[members] = covariate_covariances(x.take(idx, axis=0))
                sxx_inv, errors = spd_inverses(covs, "covariate covariance")
        tau_y, tau_w, families, arm_errors = moment_families(*arms, n1, n0, sxx_inv)
    return tau_y, tau_w, families, {**arm_errors, **errors}


def stack_families(built) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """row_families results of consecutive blocks of rows as one block's,
    each error at its row of the whole."""
    tau_y, tau_w, families, errors = zip(*built)
    starts = np.cumsum([0, *map(len, tau_y)]).tolist()
    return (np.concatenate(tau_y), np.concatenate(tau_w),
            {name: tuple(map(np.concatenate, zip(*(f[name] for f in families))))
             for name in families[0]},
            {start + row: exc for start, part in zip(starts, errors) for row, exc in part.items()})


def variance_components(summary: MomentSummary) -> VarianceComponents:
    """Assemble the plain and, given covariates, the rerandomization and
    projection families; a singular full, then within-arm, covariate
    covariance raises."""
    # extreme covariate scales overflow; analyze_stratum skips nonfinite ones
    with np.errstate(over="ignore", invalid="ignore"):
        sxx_inv = Covariates(summary.dataset.x).sxx_inv if summary.k else None
        _, _, families, errors = moment_families(*summary.covariate_arms, summary.n1,
                                                 summary.n0, sxx_inv)
    if errors:
        raise unstored(errors[0])
    return VarianceComponents(**{name: tuple(float(v[0]) for v in triple)
                                 for name, triple in families.items()}, k=summary.k)


def _one_row(*values) -> np.ndarray:
    """``values`` as the one-element columns of an array kernel's one row."""
    return np.array(values, dtype=float).reshape(-1, 1)


def _quad(triple: tuple[float, float, float], tau: float) -> float:
    v_y, c, v_w = triple
    return v_y - 2.0 * tau * c + tau * tau * v_w


class R2Value(NamedTuple):
    value: float
    degenerate: bool = False


def r2_ratio(num, den):
    """(num/den clipped to [0, 1], den <= 0) for floats and arrays alike, by
    the same operations. A nonpositive denominator marks the variance
    estimate degenerate and gives the conservative value 0 (the mixture
    quantile is largest there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        clipped = np.minimum(np.maximum(np.divide(num, den), 0.0), 1.0)  # np.clip is slower
    return np.where(den > 0.0, clipped, 0.0), den <= 0.0


def _common_scale(proj, rem):
    """Both triples in side_scales coordinates with one ey and ew (by the
    larger v_y and v_w), and ew - ey: a ratio t is t 2^(ew-ey) there and
    each quadratic 2^-2ey times its value at t, so P/Q keeps its bits."""
    _, ey = np.frexp(np.sqrt(np.maximum(np.abs(proj[0]), np.abs(rem[0]))))
    _, ew = np.frexp(np.sqrt(np.maximum(np.abs(proj[2]), np.abs(rem[2]))))
    shifts = (-2 * ey, -(ey + ew), -2 * ew)
    return [[np.ldexp(v, e) for v, e in zip(f, shifts)] for f in (proj, rem)], ew - ey


def r2_at(proj, rem, tau):
    """r2_ratio of the projection and rerandomization families' quadratics
    at ``tau``, on their common scale; triples of floats or of arrays. Where
    finite triples overflow at the scaled ratio t, both quadratics are
    divided by t^2 (the reversed triples at 1/t), whose limit is p2/q2."""
    (proj, rem), shift = _common_scale(proj, rem)
    t = np.ldexp(tau, shift)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, q = _quad(proj, t), _quad(rem, t)
        over = ~(np.isfinite(p) & np.isfinite(q)) & np.isfinite([*proj, *rem]).all(axis=0)
        p, q = (np.where(over, _quad(f[::-1], 1.0 / t), v) for f, v in ((proj, p), (rem, q)))
    return r2_ratio(p, q)


def r2_of_tau(components: VarianceComponents, tau: float) -> R2Value:
    """Squared correlation between the effect estimate and covariate
    imbalance, evaluated at a candidate ratio and clipped to [0, 1]."""
    value, degenerate = r2_at(components.family("proj"), components.family("rem"), tau)
    return R2Value(float(value), bool(degenerate))


def r2_stars(proj, rem) -> tuple[np.ndarray, np.ndarray]:
    """The minimum over the extended real line of r2_of_tau, P(t)/Q(t) for
    the projection family P and rerandomization family Q, clipped to [0, 1],
    and its degenerate flag, for every row of the two triples.

    It is the smaller root of det(P - lambda Q) = 0 for the forms' 2x2
    matrices. Shifted to Q's vertex t_c = q1/q2, Q = Q_c + q2 s^2 and
    P = P_c + 2 b s + p2 s^2; the whitened form's lambda_min = det/lambda_max,
    both multiplied by Q_c so it stays continuous as Q_c goes to 0 (the
    textbook (A + C)/2 - hypot((A - C)/2, B) loses every digit there).
    P_c <= 0 gives 0; a P sharing Q's exact double root is p2/q2 times Q.
    A nonpositive q2, or real roots of Q beyond roundoff (a negative
    denominator region), gives 0 flagged degenerate.
    """
    (proj, rem), _ = _common_scale(*([np.asarray(v, dtype=float) for v in f] for f in (proj, rem)))
    (p0, p1, p2), (q0, q1, q2) = proj, rem
    disc_q = q1 * q1 - q0 * q2
    degenerate = (q2 <= 0.0) | (disc_q > 1e-12 * np.maximum(q1 * q1, np.abs(q0 * q2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_c = q1 / q2
        p_c, q_c = _quad(proj, t_c), np.maximum(_quad(rem, t_c), 0.0)
        b = p2 * t_c - p1
        c = p2 / q2
        qc_lam_max = 0.5 * (p_c + q_c * c) + np.hypot(0.5 * (p_c - q_c * c),
                                                      b * np.sqrt(q_c / q2))
        lam_min = (p_c * p2 - b * b) / q2 / qc_lam_max
    double_root = (q_c == 0.0) & (p_c == 0.0) & (b == 0.0)
    value = np.where(double_root, c, np.where(p_c <= 0.0, 0.0, lam_min))
    return np.where(degenerate, 0.0, np.minimum(np.maximum(value, 0.0), 1.0)), degenerate


def r2_star(components: VarianceComponents) -> R2Value:
    """r2_stars of the one row of ``components``."""
    value, degenerate = r2_stars(components.family("proj"), components.family("rem"))
    return R2Value(float(value), bool(degenerate))


FLOORED_FAMILIES = frozenset({"rem"})  # can go negative in finite samples


class VarianceAt(NamedTuple):
    value: float
    floored: bool = False


def side_scales(b_y, b_w, q_y, q_c, q_w):
    """The five arrays with each side on its own power-of-two scale, and ey
    and ew: b_y, q_y times 2^-ey, 2^-2ey put max(|b_y|, sqrt|q_y|) in
    [0.5, 1), b_w, q_w likewise by ew, and q_c goes by 2^-(ey+ew). Any
    quadratic in the ratio t is then one in t 2^(ew-ey), exactly."""
    _, ey = np.frexp(np.maximum(np.abs(b_y), np.sqrt(np.abs(q_y))))
    _, ew = np.frexp(np.maximum(np.abs(b_w), np.sqrt(np.abs(q_w))))
    return (np.ldexp(b_y, -ey), np.ldexp(b_w, -ew), np.ldexp(q_y, -2 * ey),
            np.ldexp(q_c, -(ey + ew)), np.ldexp(q_w, -2 * ew)), ey, ew


def variance_at(b_y, b_w, triple, family: str, rows):
    """The ``family`` quadratic of ``triple`` at the ratio b_y / b_w of every
    row, on each side's own scale (side_scales): the scaled ratio t', the
    quadratic there times 2^-2ey, floored at zero, and ey and ew; where
    among ``rows`` (a mask) it is negative: below zero for a floored family,
    else by more than 1e-9 of its largest term; and the error each of
    ``rows`` raises: a ratio b_y / b_w that is not finite, or else for a
    family that is not floored, a negative value."""
    (s_y, s_w, *triple), ey, ew = side_scales(b_y, b_w, *triple)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        unbounded = {int(i): ValueError("tau_hat must be finite")
                     for i in (rows & ~np.isfinite(b_y / b_w)).nonzero()[0]}
        tau = s_y / s_w
        value = _quad(triple, tau)
        if family in FLOORED_FAMILIES:
            return tau, np.maximum(value, 0.0), ey, ew, rows & (value < 0.0), unbounded
        scale = np.maximum(np.maximum(np.abs(triple[0]), np.abs(2.0 * tau * triple[1])),
                           np.abs(tau * tau * triple[2]))
        negative = rows & (value < -1e-9 * scale)
    return tau, np.maximum(value, 0.0), ey, ew, negative, {
        **{int(i): ArithmeticError(f"{family} variance quadratic is negative: "
                                   f"{float(np.ldexp(value[i], 2 * ey[i]))}")
           for i in negative.nonzero()[0]}, **unbounded}


def combined_variance(components, tau_hat: float, family: str = "plain") -> VarianceAt:
    """Variance estimate for the outcome-minus-ratio-times-receipt contrast,
    the chosen family's quadratic evaluated at the ratio estimate: the one
    row of variance_at.

    The rerandomization family is floored at zero (it can go negative in
    finite samples); the plain and sandwich families are nonnegative by
    construction, so anything beyond roundoff raises.

    ``components`` is a VarianceComponents for 'plain'/'rem' or a
    SandwichCov for 'sandwich'.
    """
    _, value, ey, _, negative, errors = variance_at(
        np.array([tau_hat]), np.ones(1), _one_row(*components.family(family)), family, True)
    if errors:
        raise unstored(errors[0])
    return VarianceAt(float(np.ldexp(value[0], 2 * ey[0])), floored=bool(negative[0]))
