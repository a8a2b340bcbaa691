"""The normal/truncated-chi mixture that governs rerandomized assignments.

Under a Mahalanobis acceptance rule the standardized effect estimate is
asymptotically a two-component mixture: sqrt(1-rho) times a standard normal
plus sqrt(rho) times the symmetric truncated-chi variable induced by the
balance criterion. This module samples that mixture, tabulates its upper
quantiles over a rho grid, and provides the supporting special functions.

A table's draws are laid out once in eps0 bins, each ordered by the
component, and shared by the tables that differ only in alpha. The normals
are drawn whole and placed by a stable counting sort on their bin; the
component is then drawn a chunk at a time straight into the same slots
(its truncated radius by inverting a CDF grid through a bucket guide
table), and each bin is sorted by it. At each rho a sweep mixes only the
draws whose bin bounds cannot place them above or below a pilot band around
the wanted order statistics; the quantiles it reads are those of the full
sample, bit for bit, and the draws are those of whole-array numpy calls.
"""
from __future__ import annotations

import functools
import math
import statistics
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
_UNCONVERGED = f"chi-square CDF with k = {{}} did not converge in {_MAX_ITER} steps"
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
            return out
    raise ValueError(_UNCONVERGED.format(round(2 * a)))


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
            return out
    raise ValueError(_UNCONVERGED.format(round(2 * a)))


def _regularized_lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) of every entry: series below a + 1, continued fraction above."""
    zero, inf, nan = x == 0, np.isinf(x), np.isnan(x)
    out = np.where(inf, 1.0, np.where(nan, np.nan, 0.0))
    series = ~zero & (x < a + 1.0)
    fraction = ~(series | zero | inf | nan)
    xs, xf = x[series], x[fraction]
    out[series] = _lower_gamma_series(a, xs) * _prefactor(a, xs)
    out[fraction] = 1.0 - _prefactor(a, xf) * _upper_gamma_fraction(a, xf)
    return out


def chisq_cdf(x, k: int):
    """Chi-square CDF with k degrees of freedom, P(k/2, x/2) by series below
    k/2 + 1 and by continued fraction above, for a number or every entry of
    an array; an entry's bits do not depend on the others. An entry not
    converged in _MAX_ITER steps (from k = 6,000 on) raises ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise ValueError("x must be >= 0")
    half = arr.ravel() / 2.0
    out = np.concatenate([_regularized_lower_gamma(k / 2.0, half[i:i + _CDF_BLOCK])
                          for i in range(0, max(half.size, 1), _CDF_BLOCK)])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@functools.cache
def normal_quantile(p: float) -> float:
    """Standard normal quantile, by the standard library (Wichura's AS 241)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return statistics.NormalDist().inv_cdf(p)


def chisq_quantile(p: float, k: int) -> float:
    """Chi-square quantile by monotone bisection on the CDF (rel tol 1e-10)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    hi = float(max(k, 1))
    while chisq_cdf(hi, k) < p:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("chi-square quantile bracket failed")
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


# Draws a sampler or layout pass handles at a time: chunked numpy calls draw
# the numbers of one whole-array call, and a chunk's temporaries stay small.
_CHUNK = 1 << 13
# Points of the CDF grid a truncated chi-square is inverted through, and
# buckets of the guide table that finds a value's grid interval (two per
# point, so most buckets hold at most one).
_CDF_GRID = 16385
_CDF_BUCKETS = 1 << 15


def _truncated_chisq_inverse(k: int, a: float):
    """The inverse CDF of a chi-square restricted to [0, a], as a function
    of an array of uniforms u ~ U(0,1) that returns a new array of draws.

    Beyond the closed form at k = 2 it is ``np.interp(u * F(a), cdf, grid)``
    through a fine CDF grid, bit for bit: a bucket guide table finds each
    value's grid interval, and the interpolation is np.interp's own
    arithmetic. The grid is dense enough that the inversion error is far
    below Monte Carlo noise.
    """
    fa = chisq_cdf(a, k)
    if k == 2:
        def inverse(u):
            x = u * fa
            np.negative(x, out=x)
            np.log1p(x, out=x)
            x *= -2.0
            return x
        return inverse
    grid = np.linspace(0.0, a, _CDF_GRID)
    cdf = chisq_cdf(grid, k)
    cdf[-1] = fa
    # np.interp's slope of each interval; after the last node a 0 slope (and
    # an infinite node) make F(a) itself read the last grid point
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.append(np.diff(grid) / np.diff(cdf), 0.0)
    cdf = np.append(cdf, np.inf)
    per = _CDF_BUCKETS / fa

    def bucket(x):
        return np.minimum(x * per, _CDF_BUCKETS - 1).astype(np.intp)

    # bucket() is monotone: a value's interval j, its last node at or below
    # it, is the last node of the buckets below its own plus the nodes of its
    # own bucket at or below it, one test where the bucket holds one node
    node = bucket(cdf[:-1])
    before = (np.searchsorted(node, np.arange(_CDF_BUCKETS)) - 1).astype(np.int32)
    crowded = np.bincount(node, minlength=_CDF_BUCKETS) > 1

    def inverse(u):
        x = u * fa
        del u  # a u only this call holds is freed at once
        b = bucket(x)
        j = before[b].astype(np.intp)
        j += cdf[j + 1] <= x
        many = np.flatnonzero(crowded[b])
        del b
        j[many] = np.searchsorted(cdf, x[many], side="right") - 1
        # slope * (x - cdf[j]) + grid[j], as np.interp computes it
        x -= cdf[j]
        x *= slope[j]
        x += grid[j]
        return x
    return inverse


def _component_into(params: MixtureParams, rng: np.random.Generator,
                    out: np.ndarray, slots) -> None:
    """Draw the balance-induced component into its slots of ``out``:
    ``slots()`` yields, a chunk of draws at a time in draw order, the
    positions of their values.

    The component is chi * sign * sqrt(beta): a chi variable truncated so its
    square stays below the acceptance threshold (exact inverse-CDF on the
    restricted range), a fair coin, and a beta factor that projects the
    radius onto one coordinate (a point mass at 1 when k = 1). Every sign is
    drawn, then every radius, then every beta, a chunk at a time (the
    numbers of whole-array calls), each multiplied into its slots.
    """
    k, a = params.k, params.a
    for s in slots():
        sign = rng.integers(0, 2, size=s.size)
        sign *= 2
        sign -= 1
        out[s] = sign
    if math.isinf(a):
        radius_sq = functools.partial(rng.chisquare, k)
    else:
        inverse = _truncated_chisq_inverse(k, a)

        def radius_sq(size):
            return inverse(rng.uniform(0.0, 1.0, size=size))
    for s in slots():
        radius = radius_sq(size=s.size)
        out[s] *= np.sqrt(radius, out=radius)
    if k > 1:
        for s in slots():
            beta = rng.beta(0.5, (k - 1) / 2.0, size=s.size)
            out[s] *= np.sqrt(beta, out=beta)


def sample_truncated_component(params: MixtureParams, rng: np.random.Generator,
                               count: int) -> np.ndarray:
    """Draw ``count`` of the symmetric balance-induced component
    chi * sign * sqrt(beta), in draw order: ``_component_into`` with every
    draw in its own slot."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    _component_into(params, rng, out, lambda: (
        np.arange(i, min(i + _CHUNK, count)) for i in range(0, count, _CHUNK)))
    return out


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


# Pilot draws of the band in _upper_quantiles: a band of +-6 pilot standard
# errors around the target holds both order statistics except with
# negligible probability (the exact full quantile is the fallback).
_PILOT = 1 << 14
_PILOT_SIGMAS = 6.0
# Equal-width eps0 bins of the sorted draw layout. A rho's band crosses the
# comp-sorted run of a bin in one stretch, so a sweep mixes only the draws of
# those stretches; more bins make the stretches shorter and the per-rho
# bookkeeping longer.
_BINS = 128


# Every _GUIDE-th sorted key of a layout is kept; a search recomputes the keys
# of one guide step.
_GUIDE = 64


@dataclass(frozen=True)
class _DrawLayout:
    """A table's normal and component draws, sorted for the band sweep.

    The draws fall into ``_BINS`` equal-width ``eps0`` bins laid out one after
    another, each sorted by ``comp``, so ``key = bin * width + comp`` is
    sorted (``width`` is a power of two above 4 (max|comp| + 1), so a bin's
    keys never reach the next one's; ``_sort_key`` computes it from ``lo``
    and ``scale``). Only every ``_GUIDE``-th key is held, in ``guide``;
    ``_layout_search`` recomputes the rest. ``starts`` holds the
    ``_BINS + 1`` bin offsets, ``e_min``/``e_max`` each bin's ``eps0`` bounds
    (0 when empty), ``pilot_eps0``/``pilot_comp`` the first ``_PILOT`` draws
    in draw order, and ``slack`` bounds the rounding of any decision made
    from the bounds. Every array is read-only.
    """

    eps0: np.ndarray
    comp: np.ndarray
    guide: np.ndarray
    starts: np.ndarray
    e_min: np.ndarray
    e_max: np.ndarray
    pilot_eps0: np.ndarray
    pilot_comp: np.ndarray
    lo: float
    scale: float
    width: float
    comp_bound: float
    slack: float


def _bin_of(eps0: np.ndarray, lo: float, scale: float) -> np.ndarray:
    """floor((eps0 - lo) * scale), at most _BINS - 1: each draw's bin, as floats."""
    b = eps0 - lo
    b *= scale
    np.floor(b, out=b)
    np.minimum(b, _BINS - 1, out=b)
    return b


def _sort_key(eps0: np.ndarray, comp: np.ndarray, lo: float, scale: float,
              width: float) -> np.ndarray:
    """bin * width + comp, with the bin of ``_bin_of``."""
    key = _bin_of(eps0, lo, scale)
    key *= width
    key += comp
    return key


def _bin_slots(bins: np.ndarray, starts: np.ndarray):
    """A stable counting sort's destinations, a _CHUNK of draws at a time:
    draw i goes to its bin's start plus the number of earlier draws in its
    bin. Each pass recomputes them from the uint8 bins, so no full-size
    index array is held."""
    filled = starts[:-1].copy()
    for i in range(0, bins.size, _CHUNK):
        b = bins[i:i + _CHUNK]
        counts = np.bincount(b, minlength=_BINS)
        # in bin order the chunk's draws take their bins' next free slots
        slot = np.empty(b.size, dtype=np.intp)
        slot[np.argsort(b, kind="stable")] = (
            np.repeat(filled - (np.cumsum(counts) - counts), counts) + np.arange(b.size))
        filled += counts
        yield slot


def _draw_layout(eps0: np.ndarray, draw_comp) -> _DrawLayout:
    """Lay a table's draws out sorted for the band sweep.

    The normals ``eps0`` are binned, moved into their bins' slots and let
    go; ``draw_comp(comp, slots)`` then draws the components into the same
    slots (``slots()`` yields them a chunk of draws at a time, in draw
    order), and each bin's stretch is sorted by ``comp``. Beyond the two
    placed arrays only the uint8 bins are full-size.
    """
    n = eps0.size
    lo, hi = float(eps0.min()), float(eps0.max())
    e_bound = max(-lo, hi)
    scale = _BINS / (hi - lo) if hi > lo else 0.0
    bins = np.empty(n, dtype=np.uint8)
    starts = np.zeros(_BINS + 1, dtype=np.intp)
    for i in range(0, n, _CHUNK):
        b = bins[i:i + _CHUNK]
        b[:] = _bin_of(eps0[i:i + _CHUNK], lo, scale)
        starts[1:] += np.bincount(b, minlength=_BINS)
    np.cumsum(starts, out=starts)
    slots = functools.partial(_bin_slots, bins, starts)
    placed = np.empty(n)
    for i, s in zip(range(0, n, _CHUNK), slots()):
        placed[s] = eps0[i:i + _CHUNK]
    del eps0
    comp = np.empty(n)
    draw_comp(comp, slots)
    pilot = np.concatenate([s for _, s in zip(range(0, _PILOT, _CHUNK), slots())])[:_PILOT]
    pilot_eps0, pilot_comp = placed[pilot], comp[pilot]
    del bins, slots, pilot
    eps0 = placed
    for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
        order = np.argsort(comp[s:e])
        comp[s:e] = comp[s:e][order]
        eps0[s:e] = eps0[s:e][order]
    comp_bound = max(-float(comp.min()), float(comp.max())) + 1.0
    width = 2.0 ** math.frexp(4.0 * comp_bound)[1]
    guide = _sort_key(eps0[::_GUIDE], comp[::_GUIDE], lo, scale, width)
    filled = starts[:-1] < starts[1:]
    e_min, e_max = np.zeros(_BINS), np.zeros(_BINS)
    e_min[filled] = np.minimum.reduceat(eps0, starts[:-1][filled])
    e_max[filled] = np.maximum.reduceat(eps0, starts[:-1][filled])
    arrays = (eps0, comp, guide, starts, e_min, e_max, pilot_eps0, pilot_comp)
    for array in arrays:
        array.flags.writeable = False
    return _DrawLayout(*arrays, lo=lo, scale=scale, width=width, comp_bound=comp_bound,
                       slack=1e-12 * (e_bound + comp_bound))


def _layout_search(draws: _DrawLayout, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(key, v)`` over the layout's full sorted key: the guide
    places each value within one guide step, whose keys are recomputed."""
    flat = v.ravel()
    n = draws.eps0.size
    base = np.searchsorted(draws.guide, flat) * _GUIDE - (_GUIDE - 1)
    np.maximum(base, 0, out=base)
    at = base[:, None] + np.arange(_GUIDE - 1)
    inside = at < n
    np.minimum(at, n - 1, out=at)
    key = _sort_key(draws.eps0[at], draws.comp[at], draws.lo, draws.scale, draws.width)
    below = (key < flat[:, None]) & inside
    return (base + np.count_nonzero(below, axis=1)).reshape(v.shape)


_draws_lock = threading.Lock()
_shared_draws: tuple = (None, None)


def _table_draws(params: MixtureParams, draw_count: int, seed: int) -> _DrawLayout:
    """The laid-out draws of a table, shared across alpha.

    Tables with the same (k, a, draw_count, seed) draw identical samples, so
    the most recent layout is kept (one entry, read-only) for the next table.
    """
    global _shared_draws
    key = (params.k, params.a, draw_count, seed)
    with _draws_lock:
        if _shared_draws[0] != key:
            _shared_draws = (None, None)  # release before drawing anew
            rng = np.random.default_rng(seed)
            # the normals are handed over unheld, so the layout frees them
            # once they are placed
            _shared_draws = (key, _draw_layout(
                rng.standard_normal(draw_count),
                functools.partial(_component_into, params, rng)))
        return _shared_draws[1]


def _mixed_quantile(eps0: np.ndarray, comp: np.ndarray, rho: float,
                    q: float) -> float:
    """The q-quantile of the mixed draws by a full partition (in any order)."""
    return np.quantile(math.sqrt(1.0 - rho) * eps0 + math.sqrt(rho) * comp, q)


def _upper_quantiles(draws: _DrawLayout, rho_grid: np.ndarray, q: float) -> np.ndarray:
    """``_mixed_quantile`` at every rho, bit for bit, from a band of values.

    numpy's linear method interpolates the order statistics ``lo`` and
    ``lo + 1`` at weight ``t``. Quantiles of the pilot draws bracket them by
    a band. Inside a bin the mixed value rises with ``comp`` between the
    bin's ``eps0`` bounds, so two searches of the sorted key
    (``_layout_search``) split the bin into draws certainly below the band (skipped), certainly at or above it
    (only counted) and the stretch between, which is mixed with the
    arithmetic of ``_mixed_quantile``. The two order statistics are read from
    the mixed values inside the band once the counts show they lie inside
    it; otherwise the full partition is used.
    """
    n = draws.eps0.size
    pos = (n - 1) * q
    lo = math.floor(pos)
    t = pos - lo
    m = draws.pilot_eps0.size
    f = (n - lo) / n
    margin = _PILOT_SIGMAS * math.sqrt(f * (1.0 - f) / m) + 2.0 / m
    j_lo = math.floor((1.0 - f - margin) * (m - 1))
    j_hi = math.ceil((1.0 - f + margin) * (m - 1))
    offsets = draws.width * np.arange(_BINS)
    ends = draws.starts[1:]
    bound, slack = draws.comp_bound, draws.slack
    raw = np.empty(rho_grid.size)
    for i, rho in enumerate(rho_grid):
        s_eps, s_comp = math.sqrt(1.0 - rho), math.sqrt(rho)
        pilot = np.sort(s_eps * draws.pilot_eps0 + s_comp * draws.pilot_comp)
        band_lo = pilot[j_lo] if j_lo >= 0 else -math.inf
        band_hi = pilot[j_hi] if j_hi < m else math.inf
        # the comp at which a bin's draws certainly reach band_hi, and below
        # which they certainly stay under band_lo
        if s_comp > 0.0:
            c_hi = (band_hi + slack - s_eps * draws.e_min) / s_comp
            c_lo = (band_lo - slack - s_eps * draws.e_max) / s_comp
        else:  # rho = 0: whole bins by their eps0 bounds
            c_hi = np.where(s_eps * draws.e_min >= band_hi + slack, -math.inf, math.inf)
            c_lo = np.where(s_eps * draws.e_max < band_lo - slack, math.inf, -math.inf)
        first, last = _layout_search(draws, offsets + np.clip([c_lo, c_hi], -bound, bound))
        count_above = int((ends - last).sum())
        sizes = np.maximum(last - first, 0)  # an inverted band holds nothing
        take = np.arange(sizes.sum()) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
        x = s_eps * draws.eps0[take] + s_comp * draws.comp[take]
        over = x >= band_hi
        count_above += np.count_nonzero(over)
        band = x[(x >= band_lo) & ~over]
        # sorted position of band[0] in the full sample
        j = lo - (n - count_above - band.size)
        if j < 0 or j + 1 >= band.size:
            raw[i] = _mixed_quantile(draws.eps0, draws.comp, rho, q)
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
    be non-increasing in rho (the quantile provably is) and clipped to the
    normal quantile from above. ``lambda_quantiles`` interpolates linearly
    between grid points. ``build`` reads each raw value from the sorted
    draw layout by a band sweep (see ``_upper_quantiles``); the bytes are
    those of ``np.quantile`` over all mixed draws.
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
        rho_grid = np.linspace(0.0, 1.0, grid_size)
        q = 1.0 - params.alpha
        raw = _upper_quantiles(_table_draws(params, draw_count, seed), rho_grid, q)
        z = normal_quantile(q)
        values = np.clip(_isotonic_nonincreasing(raw), 0.0, z)
        return cls(params=params, rho_grid=rho_grid, lambda_values=values,
                   raw_values=raw, draw_count=draw_count, seed=seed)


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
