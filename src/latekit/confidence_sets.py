"""Wald intervals and Fieller/Anderson-Rubin style confidence sets.

The ratio-inversion set is {t : (b_y - t*b_w)^2 <= crit^2 * q(t)} for a
quadratic variance form q; collecting terms gives A*t^2 + B*t + C <= 0
whose sign pattern yields an interval, one or two rays, the whole line,
or (as a roundoff guard) a single point. Whenever the first-stage estimate
is nonzero the ratio point estimate belongs to the set, so a truly empty
solution is impossible.

``wald_intervals`` and ``solve_quadratic_sets`` compute the Wald and
inversion sets of many draws at once, as arrays, with the same arithmetic
as the scalar functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import AnalysisConfig
from .estimation import (
    FLOORED_FAMILIES,
    Estimates,
    Regime,
    combined_variance,
    r2_of_tau,
    r2_star,
    regime_spec,
)
from .exceptions import NoIdentificationError
from .mixture import MixtureParams, lambda_quantile, normal_quantile

_INF = math.inf


def json_number(v: float | None):
    """A number as report.json writes it: None or nan as null, an infinity
    as the string "inf" or "-inf", anything else as a float."""
    if v is None or math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


@dataclass(frozen=True)
class ConfidenceSet:
    """Tagged confidence-set geometry with extended-real length: one entry
    of a SetArrays.

    ``kind`` is one of KINDS. ``lo``/``hi`` bound the set and are infinite
    on an open side; a point has ``lo == hi``, and rays are closed at their
    finite endpoint. ``two_rays`` is (-inf, lo] united with [hi, inf).
    """

    kind: str
    lo: float = -_INF
    hi: float = _INF
    method: str = ""
    degenerate: bool = False

    @staticmethod
    def interval(lo: float, hi: float, **kw) -> "ConfidenceSet":
        if lo > hi:
            lo, hi = hi, lo
        return ConfidenceSet("interval", lo, hi, **kw)

    @staticmethod
    def two_rays(lo: float, hi: float, **kw) -> "ConfidenceSet":
        if not lo < hi:
            raise ValueError("two rays must be disjoint")
        return ConfidenceSet("two_rays", lo, hi, **kw)

    @property
    def length(self) -> float:
        """SetArrays.length of this entry."""
        return _INF if self.kind == "two_rays" else self.hi - self.lo

    def contains(self, value: float) -> bool:
        """SetArrays.contains(value) of this entry."""
        if self.kind == "two_rays":
            return value <= self.lo or value >= self.hi
        return self.lo <= value <= self.hi

    def to_json_dict(self) -> dict:
        rays = self.kind == "two_rays"
        out = {"type": self.kind, "lo": json_number(-_INF if rays else self.lo),
               "hi": json_number(_INF if rays else self.hi),
               "length": json_number(self.length)}
        if rays:
            out["hi_left"], out["lo_right"] = json_number(self.lo), json_number(self.hi)
        if self.method:
            out["method"] = self.method
        return out


def solve_quadratic_set(b_y: float, b_w: float, crit: float,
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
            lo, hi = _stable_roots(a, b, c, disc)
            return ConfidenceSet.interval(lo, hi, method=method)
        if ratio is not None:
            # a nonnegative variance form makes disc >= 0 whenever the ratio
            # point exists; landing here is roundoff (or a degenerate
            # rerandomization family), absorbed as the ratio point itself
            return ConfidenceSet("point", ratio, ratio, method, degenerate=True)
        raise NoIdentificationError("empty confidence inversion with zero first stage")
    if a < -tol_a:
        if disc > 0.0:
            lo, hi = _stable_roots(a, b, c, disc)
            return ConfidenceSet.two_rays(lo, hi, method=method)
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


def _stable_roots(a: float, b: float, c: float, disc: float) -> tuple[float, float]:
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * abs(a))
        return (-r, r)
    q = -(b + math.copysign(sq, b)) / 2.0
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / a - r1
    return (r1, r2) if r1 <= r2 else (r2, r1)


KINDS = ("interval", "point", "left_ray", "right_ray", "two_rays", "whole_line")
_INTERVAL, _TWO_RAYS, _WHOLE_LINE = (KINDS.index(k) for k in
                                     ("interval", "two_rays", "whole_line"))


class SetArrays(NamedTuple):
    """The confidence sets of many draws, one entry per draw.

    ``kind`` indexes KINDS, and ``lo``/``hi`` are as in ConfidenceSet: the
    bounds, infinite on an open side, or for two_rays the inner endpoints.
    ``errors`` maps each draw whose scalar computation raises to
    its exception; the other entries of such a draw mean nothing.
    """

    kind: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degenerate: np.ndarray
    errors: dict[int, Exception]

    @property
    def length(self) -> np.ndarray:
        """The length of every draw's set: infinite for two rays, else hi - lo."""
        return np.where(self.kind == _TWO_RAYS, _INF, self.hi - self.lo)

    def contains(self, value: float) -> np.ndarray:
        """Whether every draw's set contains ``value``."""
        inside = (self.lo <= value) & (value <= self.hi)
        return np.where(self.kind == _TWO_RAYS, (value <= self.lo) | (value >= self.hi),
                        inside)


def wald_intervals(b_y: np.ndarray, b_w: np.ndarray, crit, q_y: np.ndarray,
                   q_c: np.ndarray, q_w: np.ndarray, family: str = "plain") -> SetArrays:
    """wald_ci for every draw: effect estimates (b_y, b_w), a critical value
    (one, or one per draw) and the named variance family (q_y, q_c, q_w),
    one entry per draw. A negative variance of a floored family is taken as
    zero and flags the set degenerate, as combined_variance does for it;
    otherwise it is an error with combined_variance's message."""
    floored = family in FLOORED_FAMILIES
    defined = b_w != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = b_y / b_w
        value = q_y - 2.0 * tau * q_c + tau * tau * q_w
        if floored:
            negative = defined & (value < 0.0)
        else:
            scale = (np.maximum(np.maximum(np.abs(q_y), np.abs(q_c)), np.abs(q_w))
                     * np.maximum(1.0, tau * tau))
            negative = defined & (value < -1e-9 * np.maximum(scale, 1e-300))
        radius = crit * np.sqrt(np.maximum(value, 0.0)) / np.abs(b_w)
        lo = np.where(defined, tau - radius, -_INF)
        hi = np.where(defined, tau + radius, _INF)
    errors = {} if floored else {int(i): ArithmeticError(
        f"{family} variance quadratic is negative: {float(value[i])}")
        for i in np.flatnonzero(negative)}
    degenerate = (~defined | negative) if floored else ~defined
    return SetArrays(kind=np.where(defined, _INTERVAL, _WHOLE_LINE).astype(np.int8),
                     lo=lo, hi=hi, degenerate=degenerate, errors=errors)


def solve_quadratic_sets(b_y: np.ndarray, b_w: np.ndarray, crit,
                         q_y: np.ndarray, q_c: np.ndarray, q_w: np.ndarray
                         ) -> SetArrays:
    """solve_quadratic_set for every draw, one entry per draw; ``crit`` is
    one critical value or one per draw.

    Intervals, two rays and whole lines are computed as arrays. The rare
    rest (|a| within tolerance, a negative discriminant, roots that do not
    order) goes through solve_quadratic_set one draw at a time, and what it
    raises is kept in ``errors``.
    """
    crit = np.broadcast_to(crit, np.shape(b_y))
    crit2 = crit * crit
    inputs = b_y, b_w, crit, q_y, q_c, q_w
    _, e = np.frexp(np.maximum(np.maximum(np.abs(b_y), np.abs(b_w)), np.sqrt(
        np.maximum(np.maximum(np.abs(q_y), np.abs(q_c)), np.abs(q_w)))))
    b_y, b_w = np.ldexp(b_y, -e), np.ldexp(b_w, -e)  # scaled as above
    q_y, q_c, q_w = (np.ldexp(v, -2 * e) for v in (q_y, q_c, q_w))
    a = b_w * b_w - crit2 * q_w
    b = -2.0 * (b_y * b_w - crit2 * q_c)
    c = b_y * b_y - crit2 * q_y
    tol_a = 1e-12 * np.maximum(b_w * b_w, np.abs(crit2 * q_w))
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc)
        q = -(b + np.copysign(sq, b)) / 2.0
        r1, r2, r = q / a, c / q, sq / (2.0 * np.abs(a))
        swap = ~(r1 <= r2)
        lo = np.where(b == 0.0, -r, np.where(swap, r2, r1))
        hi = np.where(b == 0.0, r, np.where(swap, r1, r2))
        interval = (a > tol_a) & (disc >= 0.0)
        two_rays = (a < -tol_a) & (disc > 0.0) & (lo < hi)
        whole_line = (a < -tol_a) & ~(disc > 0.0)
        rest = ~(interval | two_rays | whole_line) | ((b != 0.0) & (q == 0.0))
    kind = np.where(interval, _INTERVAL,
                    np.where(two_rays, _TWO_RAYS, _WHOLE_LINE)).astype(np.int8)
    lo = np.where(whole_line | rest, -_INF, lo)
    hi = np.where(whole_line | rest, _INF, hi)
    degenerate = np.zeros(len(kind), dtype=bool)
    errors: dict[int, Exception] = {}
    for i in np.flatnonzero(rest):
        try:
            cs = solve_quadratic_set(*(float(v[i]) for v in inputs))
        except (NoIdentificationError, ValueError) as exc:
            errors[int(i)] = exc
            continue
        kind[i], lo[i], hi[i] = KINDS.index(cs.kind), cs.lo, cs.hi
        degenerate[i] = cs.degenerate
    return SetArrays(kind=kind, lo=lo, hi=hi, degenerate=degenerate, errors=errors)


def _critical(spec: Regime, components, config: AnalysisConfig, r2) -> float:
    """Two-sided critical value at level alpha: the normal quantile, or for
    a mixture regime the ReM mixture quantile at the squared correlation
    ``r2(components)``."""
    tail = config.alpha / 2.0
    if not spec.mixture:
        return normal_quantile(1.0 - tail)
    params = MixtureParams(k=components.k, a=config.design.a, alpha=tail)
    return lambda_quantile(params, r2(components).value)


def wald_ci(regime: str, estimates: Estimates, components, config: AnalysisConfig
            ) -> ConfidenceSet:
    """Ratio point estimate plus/minus a critical value times the delta-method
    standard error of the chosen regime's variance family.

    A zero first-stage estimate yields the whole line (the infinite-interval
    signal) rather than an error.
    """
    spec = regime_spec(regime)
    method = f"wald[{regime}]"
    if estimates.tau_w == 0.0:
        return ConfidenceSet("whole_line", method=method, degenerate=True)
    tau = estimates.ratio
    vhat = combined_variance(components, tau, spec.family)
    crit = _critical(spec, components, config, lambda c: r2_of_tau(c, tau))
    radius = crit * math.sqrt(vhat.value) / abs(estimates.tau_w)
    return ConfidenceSet.interval(tau - radius, tau + radius, method=method,
                                  degenerate=vhat.floored)


def far_set(regime: str, estimates: Estimates, components, config: AnalysisConfig
            ) -> ConfidenceSet:
    """Weak-instrument-robust confidence set by quadratic inversion.

    The critical value is the normal quantile except in the unadjusted
    rerandomized regime, where the mixture quantile at the minimized
    squared correlation applies.
    """
    spec = regime_spec(regime)
    b_y, b_w = estimates.tau_y, estimates.tau_w
    q_y, q_c, q_w = components.family(spec.family)
    crit = _critical(spec, components, config, r2_star)
    return solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w, method=f"far[{regime}]")
