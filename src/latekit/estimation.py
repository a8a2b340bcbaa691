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

from .design import Covariates
from .stats_core import MomentSummary, _ArmArrays, _row_forms, spd_inverses


class Regime(NamedTuple):
    """What sets one inferential regime apart from the others; the families
    are 'plain' or 'rem' of a VarianceComponents, or 'sandwich' of a
    SandwichCov."""

    family: str  # variance triple the Wald, FAR and first-stage steps read
    screen_family: str  # variance triple the F>10 screen reads
    mixture: bool  # critical values from the ReM mixture, not the normal
    statistic: str  # label of the first-stage statistic


REGIMES = {
    "cre": Regime("plain", "plain", False, "t"),
    "rem": Regime("rem", "plain", True, "t_rem"),
    "adjusted": Regime("sandwich", "sandwich", False, "t_adj"),
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


def _plain_family(arm1: _ArmArrays, arm0: _ArmArrays, n1: int, n0: int):
    """The plain family (v_y, c_yw, v_w) of every row of the two arms."""
    return (arm1.s2_y / n1 + arm0.s2_y / n0, arm1.s_yw / n1 + arm0.s_yw / n0,
            arm1.s2_w / n1 + arm0.s2_w / n0)


def _forms(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u s u, u s v, v s v) of every row, a (v_y, c_yw, v_w) triple."""
    return tuple(_row_forms(a, s, b) for a, b in ((u, u), (u, v), (v, v)))


def _arm_projections(arm: _ArmArrays):
    """The triple of one arm's fitted projections on its covariates, every
    row, and the error each row with a singular arm covariance raises."""
    inv, singular = spd_inverses(arm.sxx, "within-arm covariate covariance")
    return _forms(arm.s_yx, inv, arm.s_wx), singular


def _rem_families(arm1: _ArmArrays, arm0: _ArmArrays, n1: int, n0: int,
                  sxx_inv: np.ndarray):
    """The plain, rerandomization and projection families of every row of
    arms that carry their covariate terms, given the inverse full covariate
    covariance, and the error each row with a singular arm covariance
    raises."""
    plain = _plain_family(arm1, arm0, n1, n0)
    n = n1 + n0
    corr = [c / n for c in _forms(arm1.s_yx - arm0.s_yx, sxx_inv, arm1.s_wx - arm0.s_wx)]
    (proj1, errors), (proj0, errors0) = _arm_projections(arm1), _arm_projections(arm0)
    errors.update(errors0)
    rem = tuple(p - c for p, c in zip(plain, corr))
    proj = tuple(p1 / n1 + p0 / n0 - c for p1, p0, c in zip(proj1, proj0, corr))
    return plain, rem, proj, errors


def plain_components(summary: MomentSummary) -> VarianceComponents:
    """The plain family alone, which is all complete randomization reads;
    no covariate matrix is read."""
    plain = _plain_family(summary.arm1, summary.arm0, summary.n1, summary.n0)
    return VarianceComponents(tuple(float(v[0]) for v in plain))


def variance_components(summary: MomentSummary) -> VarianceComponents:
    """Assemble the plain, rerandomization, and projection families; a
    singular full, then within-arm, covariate covariance raises."""
    if summary.k == 0:
        return plain_components(summary)
    # extreme covariate scales overflow; analyze_stratum skips nonfinite ones
    with np.errstate(over="ignore", invalid="ignore"):
        *families, errors = _rem_families(*summary.covariate_arms, summary.n1, summary.n0,
                                          Covariates(summary.dataset.x).sxx_inv)
    if errors:
        raise errors[0]
    return VarianceComponents(*(tuple(float(v[0]) for v in triple) for triple in families),
                              k=summary.k)


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


def r2_at(proj, rem, tau):
    """r2_ratio of the projection and rerandomization families' quadratics
    at ``tau``; triples of floats or of arrays."""
    return r2_ratio(_quad(proj, tau), _quad(rem, tau))


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
    proj, rem = ([np.asarray(v, dtype=float) for v in f] for f in (proj, rem))
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


def combined_variance(components, tau_hat: float, family: str = "plain") -> VarianceAt:
    """Variance estimate for the outcome-minus-ratio-times-receipt contrast,
    the chosen family's quadratic evaluated at the ratio estimate.

    The rerandomization family is floored at zero (it can go negative in
    finite samples); the plain and sandwich families are nonnegative by
    construction, so anything beyond roundoff raises.

    ``components`` is a VarianceComponents for 'plain'/'rem' or a
    SandwichCov for 'sandwich'.
    """
    if not math.isfinite(tau_hat):
        raise ValueError("tau_hat must be finite")
    triple = components.family(family)
    value = _quad(triple, tau_hat)
    if family in FLOORED_FAMILIES:
        if value < 0.0:
            return VarianceAt(0.0, floored=True)
        return VarianceAt(value)
    scale = max(abs(t) for t in triple) * max(1.0, tau_hat * tau_hat)
    if value < -1e-9 * max(scale, 1e-300):
        raise ArithmeticError(f"{family} variance quadratic is negative: {value}")
    return VarianceAt(max(value, 0.0))
