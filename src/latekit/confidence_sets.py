"""Wald intervals and Fieller/Anderson-Rubin style confidence sets.

The ratio-inversion set is {t : (b_y - t*b_w)^2 <= crit^2 * q(t)} for a
quadratic variance form q; collecting terms gives A*t^2 + B*t + C <= 0
whose sign pattern yields an interval, one or two rays, the whole line,
or (as a roundoff guard) a single point. Whenever the first-stage estimate
is nonzero the ratio point estimate belongs to the set, so a truly empty
solution is impossible.

``wald_intervals`` and ``solve_quadratic_sets`` compute the Wald and
inversion sets of many draws at once, as arrays; ``solve_quadratic_set``,
``wald_ci`` and ``far_set`` are one-row calls (the last two of score_rows).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import AnalysisConfig
from .estimation import Estimates, _one_row, side_scales, variance_at
from .exceptions import NoIdentificationError, unstored

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .estimation import combined_variance, r2_star
from .mixture import lambda_quantile

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


KINDS = ("interval", "point", "left_ray", "right_ray", "two_rays", "whole_line")
_INTERVAL, _POINT, _LEFT_RAY, _RIGHT_RAY, _TWO_RAYS, _WHOLE_LINE = range(len(KINDS))


class SetArrays(NamedTuple):
    """The confidence sets of many draws, one entry per draw.

    ``kind`` indexes KINDS, and ``lo``/``hi`` are as in ConfidenceSet: the
    bounds, infinite on an open side, or for two_rays the inner endpoints.
    ``errors`` maps each draw that has no set to the exception its one-row
    call raises; the other entries of such a draw mean nothing.
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

    def entry(self, row: int, method: str = "") -> ConfidenceSet:
        """Draw ``row``'s set labelled ``method``, or a copy of its error raised."""
        if row in self.errors:
            raise unstored(self.errors[row])
        return ConfidenceSet(KINDS[self.kind[row]], float(self.lo[row]), float(self.hi[row]),
                             method, bool(self.degenerate[row]))


def wald_intervals(b_y: np.ndarray, b_w: np.ndarray, crit, q_y: np.ndarray,
                   q_c: np.ndarray, q_w: np.ndarray, family: str = "plain") -> SetArrays:
    """The ratio estimate plus/minus a critical value (one, or one per draw)
    times the delta-method standard error for every draw: effect estimates
    (b_y, b_w) and the named variance family (q_y, q_c, q_w), one entry per
    draw. A zero first-stage estimate gives the whole line, flagged
    degenerate. The variance at the ratio is variance_at's: a negative one
    of a floored family is taken as zero and flags the set degenerate; any
    other, or a ratio that is not finite, is an error. The interval is
    found on each side's own scale, as variance_at gives them, and scaled
    back by 2^(ey-ew)."""
    defined = b_w != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau, value, ey, ew, negative, errors = variance_at(b_y, b_w, (q_y, q_c, q_w), family,
                                                           defined)
        radius = crit * np.sqrt(value) / np.abs(np.ldexp(b_w, -ew))
        lo = np.where(defined, np.ldexp(tau - radius, ey - ew), -_INF)
        hi = np.where(defined, np.ldexp(tau + radius, ey - ew), _INF)
    return SetArrays(kind=np.where(defined, _INTERVAL, _WHOLE_LINE).astype(np.int8),
                     lo=lo, hi=hi, degenerate=~defined | negative, errors=errors)


def solve_quadratic_sets(b_y: np.ndarray, b_w: np.ndarray, crit,
                         q_y: np.ndarray, q_c: np.ndarray, q_w: np.ndarray
                         ) -> SetArrays:
    """Invert (b_y - t*b_w)^2 <= crit^2 * (q_y - 2t*q_c + t^2*q_w) over t
    for every draw, one entry per draw; ``crit`` is one critical value or
    one per draw.

    As a*t^2 + b*t + c <= 0: a clearly positive gives an interval, a clearly
    negative two rays or the whole line. The rare rest, decided on its own
    rows: with |a| within tolerance, b*t + c <= 0 gives a ray, or the whole
    line with c within tolerance. Any other rest row is empty, which with a
    nonzero first stage only roundoff (or a degenerate rerandomization
    family) brings about: it is taken as the ratio point, flagged
    degenerate. A zero first stage keeps a NoIdentificationError in
    ``errors`` there, and two rays whose roots do not order a ValueError.
    """
    crit = np.broadcast_to(crit, np.shape(b_y))
    crit2 = crit * crit
    # each side on its own scale (side_scales): the same inequality in
    # t' = t 2^(ew-ey), whose roots are scaled back by 2^(ey-ew)
    (s_y, s_w, q_y, q_c, q_w), ey, ew = side_scales(b_y, b_w, q_y, q_c, q_w)
    a = s_w * s_w - crit2 * q_w
    b = -2.0 * (s_y * s_w - crit2 * q_c)
    c = s_y * s_y - crit2 * q_y
    tol_a = 1e-12 * np.maximum(s_w * s_w, np.abs(crit2 * q_w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc)
        # b is -2 times a double, so |q| >= |b|/2 >= 2^-1074 wherever b != 0
        q = -(b + np.copysign(sq, b)) / 2.0
        r1, r2, r = q / a, c / q, sq / (2.0 * np.abs(a))
        swap = ~(r1 <= r2)
        lo = np.where(b == 0.0, -r, np.where(swap, r2, r1))
        hi = np.where(b == 0.0, r, np.where(swap, r1, r2))
        interval = (a > tol_a) & (disc >= 0.0)
        two_rays = (a < -tol_a) & (disc > 0.0) & (lo < hi)
        whole_line = (a < -tol_a) & ~(disc > 0.0)
        rest = ~(interval | two_rays | whole_line)
        # back to t: an endpoint beyond the float range is infinite
        back = ey - ew
        lo = np.where(whole_line | rest, -_INF, np.ldexp(lo, back))
        hi = np.where(whole_line | rest, _INF, np.ldexp(hi, back))
    kind = np.where(interval, _INTERVAL,
                    np.where(two_rays, _TWO_RAYS, _WHOLE_LINE)).astype(np.int8)
    degenerate = np.zeros(len(kind), dtype=bool)
    errors: dict[int, Exception] = {}
    rest = np.flatnonzero(rest)
    if rest.size:
        a, b, c, tol_a, s_y, s_w, q_y, q_c, crit2, b_y, b_w, back = (
            v[rest] for v in (a, b, c, tol_a, s_y, s_w, q_y, q_c, crit2, b_y, b_w, back))
        linear = ~((a > tol_a) | (a < -tol_a))
        ray = linear & (np.abs(b) > 1e-12 * 2.0 * np.maximum(np.abs(s_y * s_w),
                                                             np.abs(crit2 * q_c)))
        whole = linear & ~ray & (c <= 1e-12 * np.maximum(s_y * s_y, np.abs(crit2 * q_y)))
        empty = ~(ray | whole | (a < -tol_a))
        point = empty & (b_w != 0.0)
        left = ray & (b > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound, ratio = np.ldexp(-c / b, back), b_y / b_w
        kind[rest] = np.select([left, ray, point], [_LEFT_RAY, _RIGHT_RAY, _POINT], _WHOLE_LINE)
        lo[rest] = np.select([ray & ~left, point], [bound, ratio], -_INF)
        hi[rest] = np.select([left, point], [bound, ratio], _INF)
        degenerate[rest] = point
        failed = ~(ray | whole | point)
        errors = {int(i): NoIdentificationError("empty confidence inversion with zero first "
                                                "stage") if unidentified
                  else ValueError("two rays must be disjoint")
                  for i, unidentified in zip(rest[failed], empty[failed])}
    return SetArrays(kind=kind, lo=lo, hi=hi, degenerate=degenerate, errors=errors)


def solve_quadratic_set(b_y: float, b_w: float, crit: float,
                        q_y: float, q_c: float, q_w: float,
                        method: str = "") -> ConfidenceSet:
    """Invert (b_y - t*b_w)^2 <= crit^2 * (q_y - 2t*q_c + t^2*q_w) over t:
    the one row of solve_quadratic_sets, labelled ``method``."""
    return solve_quadratic_sets(*_one_row(b_y, b_w, crit, q_y, q_c, q_w)).entry(0, method)


def wald_ci(regime: str, estimates: Estimates, components, config: AnalysisConfig
            ) -> ConfidenceSet:
    """Ratio point estimate plus/minus a critical value times the delta-method
    standard error of the chosen regime's variance family: the ``wald``
    step of two_stage.one_row_step.

    A zero first-stage estimate yields the whole line (the infinite-interval
    signal) rather than an error.
    """
    from .two_stage import one_row_step  # two_stage imports this module's kernels
    return one_row_step(regime, estimates, components, config, "wald")


def far_set(regime: str, estimates: Estimates, components, config: AnalysisConfig
            ) -> ConfidenceSet:
    """Weak-instrument-robust confidence set by quadratic inversion: the
    ``far`` step of two_stage.one_row_step.

    The critical value is the normal quantile except in the unadjusted
    rerandomized regime, where the mixture quantile at the minimized
    squared correlation applies.
    """
    from .two_stage import one_row_step  # two_stage imports this module's kernels
    return one_row_step(regime, estimates, components, config, "far")
