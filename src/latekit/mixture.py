"""The normal/truncated-chi mixture that governs rerandomized assignments.

Under a Mahalanobis acceptance rule the standardized effect estimate is
asymptotically a two-component mixture: sqrt(1-rho) times a standard normal
plus sqrt(rho) times the symmetric truncated-chi variable induced by the
balance criterion. This module samples that mixture, tabulates its upper
quantiles over a rho grid, and provides the supporting special functions.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

# Quantile tables are Monte Carlo objects; a fixed internal seed keeps every
# analysis byte-reproducible across processes.
_TABLE_SEED = 20240901
_DEFAULT_RHO_GRID = 101
# Sized so that two independent tables agree to < 0.01 at every grid point
# (pointwise quantile standard error ~0.002 at the 0.975 level).
_DEFAULT_DRAWS = 1_600_000

_EPS = 1e-15
_MAX_ITER = 400
# Entries chisq_cdf computes at a time: the loop temporaries of a whole
# 16,385-point grid grew the heap a process keeps by 2 MB; a block's fit in
# what it already holds.
_CDF_BLOCK = 2048


def _prefactor(a: float, x: np.ndarray) -> np.ndarray:
    """exp(-x + a log x - lgamma(a)) of every entry, by math's libm calls
    (numpy's vectorized exp and log may round differently)."""
    lg = math.lgamma(a)
    return np.array([math.exp(-v + a * math.log(v) - lg) for v in x.tolist()])


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) over the prefactor by its series, every entry stopped at the
    term its own loop would stop at."""
    out, live = np.empty(x.size), np.arange(x.size)
    term = np.full(x.size, 1.0 / a)
    total, ap = term.copy(), a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term = term * (x / ap)
        total = total + term
        done = np.abs(term) < np.abs(total) * _EPS
        out[live[done]] = total[done]
        go = ~done
        live, x, term, total = live[go], x[go], term[go], total[go]
        if not live.size:
            break
    out[live] = total
    return out


def _upper_gamma_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) over the prefactor by the modified Lentz continued fraction,
    every entry stopped at the step its own loop would stop at."""
    tiny = 1e-300
    out, live = np.empty(x.size), np.arange(x.size)
    b = x + 1.0 - a
    c = np.full(x.size, 1.0 / tiny)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _EPS
        out[live[done]] = h[done]
        go = ~done
        live, b, c, d, h = live[go], b[go], c[go], d[go], h[go]
        if not live.size:
            break
    out[live] = h
    return out


def _regularized_lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) of every entry: series below a + 1, continued fraction above."""
    zero, inf = x == 0, np.isinf(x)
    out = np.where(inf, 1.0, 0.0)
    series = ~zero & (x < a + 1.0)
    fraction = ~(series | zero | inf)  # NaN too
    xs, xf = x[series], x[fraction]
    out[series] = _lower_gamma_series(a, xs) * _prefactor(a, xs)
    out[fraction] = 1.0 - _prefactor(a, xf) * _upper_gamma_fraction(a, xf)
    return out


def chisq_cdf(x, k: int):
    """Chi-square CDF with k degrees of freedom, P(k/2, x/2) by series below
    k/2 + 1 and by continued fraction above, for a number or every entry of
    an array; an entry's bits do not depend on the others."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise ValueError("x must be >= 0")
    half = arr.ravel() / 2.0
    out = np.concatenate([_regularized_lower_gamma(k / 2.0, half[i:i + _CDF_BLOCK])
                          for i in range(0, max(half.size, 1), _CDF_BLOCK)])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _norm_cdf(x: float) -> float:
    # erfc keeps full relative precision in the left tail
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile: rational approximation plus one Newton step."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p > 0.5:
        # 1 - p is exact for p >= 0.5, so the reflection loses nothing
        return -normal_quantile(1.0 - p)
    if p == 0.5:
        return 0.0
    # Acklam's rational approximation, |relative error| < 1.15e-9.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    # one Newton refinement on the erf-based CDF
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if pdf > 0:
        x -= (_norm_cdf(x) - p) / pdf
    return x


def chisq_quantile(p: float, k: int) -> float:
    """Chi-square quantile by monotone bisection on the CDF (rel tol 1e-10)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    hi = float(max(k, 1))
    while chisq_cdf(hi, k) < p:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("chi-square quantile bracket failed")
    lo = 0.0
    while hi - lo > 1e-10 * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.cache
def threshold_from_pa(p_a: float, k: int) -> float:
    """Acceptance threshold whose asymptotic acceptance probability is p_a,
    worked out once per (p_a, k)."""
    if not 0.0 < p_a < 1.0:
        raise ValueError("p_a must be in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1 for a balance criterion")
    return chisq_quantile(p_a, k)


@dataclass(frozen=True)
class MixtureParams:
    """Degrees of freedom, truncation threshold, and tail probability."""

    k: int
    a: float
    alpha: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.a > 0:
            raise ValueError("a must be > 0")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("tail probability must be in (0, 0.5)")


def _truncated_chisq_draws(k: int, a: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of a chi-square restricted to [0, a], u ~ U(0,1)."""
    fa = chisq_cdf(a, k)
    if k == 2:
        return -2.0 * np.log1p(-u * fa)
    # monotone interpolation through a fine CDF grid; the grid is dense
    # enough that the inversion error is far below Monte Carlo noise
    grid = np.linspace(0.0, a, 16385)
    cdf = chisq_cdf(grid, k)
    cdf[-1] = fa
    return np.interp(u * fa, cdf, grid)


def sample_truncated_component(params: MixtureParams, rng: np.random.Generator,
                               count: int) -> np.ndarray:
    """Draw the symmetric balance-induced component chi * sign * sqrt(beta).

    The radial part is a chi variable truncated so its square stays below
    the acceptance threshold (exact inverse-CDF on the restricted range),
    the sign is a fair coin, and the beta factor projects the radius onto
    one coordinate (a point mass at 1 when k = 1).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k, a = params.k, params.a
    sign = rng.integers(0, 2, size=count) * 2 - 1
    if math.isinf(a):
        chi2_draws = rng.chisquare(k, size=count)
    else:
        chi2_draws = _truncated_chisq_draws(k, a, rng.uniform(0.0, 1.0, size=count))
    if k == 1:
        beta = np.ones(count)
    else:
        beta = rng.beta(0.5, (k - 1) / 2.0, size=count)
    return np.sqrt(chi2_draws) * sign * np.sqrt(beta)


def _isotonic_nonincreasing(values: np.ndarray) -> np.ndarray:
    """L2 projection onto non-increasing sequences (pool adjacent violators)."""
    vals = list(-values)  # solve the non-decreasing problem on the negation
    level = []
    weight = []
    for v in vals:
        level.append(v)
        weight.append(1)
        while len(level) > 1 and level[-2] > level[-1]:
            w = weight[-2] + weight[-1]
            lv = (level[-2] * weight[-2] + level[-1] * weight[-1]) / w
            level[-2:] = [lv]
            weight[-2:] = [w]
    out = np.concatenate([np.full(w, lv) for lv, w in zip(level, weight)])
    return -out


# Pilot draws and block size of the tail selection in _upper_quantiles; the
# block buffers stay in cache, and a band of +-6 pilot standard errors
# around the target holds both order statistics except with negligible
# probability (the exact full quantile is the fallback).
_PILOT = 1 << 14
_PILOT_SIGMAS = 6.0
_BLOCK = 1 << 16

_draws_lock = threading.Lock()
_shared_draws: tuple = (None, None, None)


def _table_draws(params: MixtureParams, draw_count: int, seed: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The normal and component draws of a table, shared across alpha.

    Tables with the same (k, a, draw_count, seed) draw identical samples, so
    the most recent pair is kept (one entry, read-only) for the next table.
    """
    global _shared_draws
    key = (params.k, params.a, draw_count, seed)
    with _draws_lock:
        if _shared_draws[0] != key:
            _shared_draws = (None, None, None)  # release before drawing anew
            rng = np.random.default_rng(seed)
            eps0 = rng.standard_normal(draw_count)
            comp = sample_truncated_component(params, rng, draw_count)
            eps0.flags.writeable = False
            comp.flags.writeable = False
            _shared_draws = (key, eps0, comp)
        return _shared_draws[1], _shared_draws[2]


def _mixed_quantile(eps0: np.ndarray, comp: np.ndarray, rho: float,
                    q: float) -> float:
    """The q-quantile of the mixed draws by a full partition."""
    return np.quantile(math.sqrt(1.0 - rho) * eps0 + math.sqrt(rho) * comp, q)


def _upper_quantiles(eps0: np.ndarray, comp: np.ndarray, rho_grid: np.ndarray,
                     q: float) -> np.ndarray:
    """``_mixed_quantile`` at every rho, bit for bit, from a band of values.

    numpy's linear method interpolates the order statistics ``lo`` and
    ``lo + 1`` at weight ``t``. Quantiles of a pilot prefix bracket them by a
    band; the mixed values are computed block by block with the same
    arithmetic, only those inside the band are kept, and the two order
    statistics are read from the kept values once the count above the band
    shows they lie inside it. Otherwise the full partition is used.
    """
    n = eps0.size
    pos = (n - 1) * q
    lo = math.floor(pos)
    t = pos - lo
    m = min(_PILOT, n)
    f = (n - lo) / n
    margin = _PILOT_SIGMAS * math.sqrt(f * (1.0 - f) / m) + 2.0 / m
    j_lo = math.floor((1.0 - f - margin) * (m - 1))
    j_hi = math.ceil((1.0 - f + margin) * (m - 1))
    mixed = np.empty(min(_BLOCK, n))
    part = np.empty_like(mixed)
    in_band = np.empty(mixed.size, dtype=bool)
    above = np.empty(mixed.size, dtype=bool)
    raw = np.empty(rho_grid.size)
    for i, rho in enumerate(rho_grid):
        s_eps, s_comp = math.sqrt(1.0 - rho), math.sqrt(rho)
        pilot = np.sort(s_eps * eps0[:m] + s_comp * comp[:m])
        band_lo = pilot[j_lo] if j_lo >= 0 else -math.inf
        band_hi = pilot[j_hi] if j_hi < m else math.inf
        count_above = 0
        kept = []
        for start in range(0, n, _BLOCK):
            size = min(_BLOCK, n - start)
            x, y = mixed[:size], part[:size]
            inside, over = in_band[:size], above[:size]
            np.multiply(s_eps, eps0[start:start + size], out=x)
            np.multiply(s_comp, comp[start:start + size], out=y)
            np.add(x, y, out=x)
            np.greater_equal(x, band_lo, out=inside)
            np.greater_equal(x, band_hi, out=over)
            count_above += np.count_nonzero(over)
            np.greater(inside, over, out=inside)  # at or above band_lo, below band_hi
            kept.append(x[inside])
        band = np.concatenate(kept)
        # sorted position of band[0] in the full sample
        j = lo - (n - count_above - band.size)
        if j < 0 or j + 1 >= band.size:
            raw[i] = _mixed_quantile(eps0, comp, rho, q)
            continue
        band.partition(j)
        a, b = float(band[j]), float(band[j + 1:].min())
        # numpy's _lerp, operation for operation
        raw[i] = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    return raw


@dataclass(frozen=True)
class MixtureQuantileTable:
    """Cached upper quantiles of the mixture over a rho grid in [0, 1].

    Values are estimated by common-random-number Monte Carlo, projected to
    be non-increasing in rho (the quantile provably is), clipped to the
    normal quantile from above, and linearly interpolated between grid
    points at lookup time.
    """

    params: MixtureParams
    rho_grid: np.ndarray
    lambda_values: np.ndarray
    raw_values: np.ndarray = field(repr=False)
    draw_count: int = _DEFAULT_DRAWS
    seed: int = _TABLE_SEED

    @classmethod
    def build(cls, params: MixtureParams, *, draw_count: int = _DEFAULT_DRAWS,
              seed: int = _TABLE_SEED, grid_size: int = _DEFAULT_RHO_GRID
              ) -> "MixtureQuantileTable":
        eps0, comp = _table_draws(params, draw_count, seed)
        rho_grid = np.linspace(0.0, 1.0, grid_size)
        q = 1.0 - params.alpha
        raw = _upper_quantiles(eps0, comp, rho_grid, q)
        z = normal_quantile(q)
        values = np.clip(_isotonic_nonincreasing(raw), 0.0, z)
        return cls(params=params, rho_grid=rho_grid, lambda_values=values,
                   raw_values=raw, draw_count=draw_count, seed=seed)

    def lookup(self, rho: float) -> float:
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        return float(np.interp(rho, self.rho_grid, self.lambda_values))


_cache_lock = threading.Lock()
_table_cache: dict[tuple, MixtureQuantileTable] = {}


def quantile_table(params: MixtureParams) -> MixtureQuantileTable:
    """Per-process cache of quantile tables, built exactly once per key.

    The lock is held through a build, so concurrent callers wait for the
    table instead of building it again.
    """
    key = (params.k, params.a, params.alpha)
    with _cache_lock:
        table = _table_cache.get(key)
        if table is None:
            table = _table_cache[key] = MixtureQuantileTable.build(params)
    return table


def lambda_quantile(params: MixtureParams, rho: float) -> float:
    """lambda_quantiles at the one point ``rho``."""
    return float(lambda_quantiles(params, rho))


def lambda_quantiles(params: MixtureParams, rho: np.ndarray) -> np.ndarray:
    """Upper 1-alpha quantile of sqrt(1-rho)*normal + sqrt(rho)*component at
    every entry of ``rho``, by one interpolation over the cached table.

    With an infinite threshold the component is exactly standard normal
    (a chi radius times an independent coordinate projection), so the
    mixture collapses to N(0,1) for every rho and the normal quantile is
    returned directly.
    """
    rho = np.asarray(rho, dtype=float)
    if not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError("rho must be in [0, 1]")
    if math.isinf(params.a):
        return np.full(rho.shape, normal_quantile(1.0 - params.alpha))
    table = quantile_table(params)
    return np.interp(rho, table.rho_grid, table.lambda_values)
