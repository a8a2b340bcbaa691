import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2, norm

from latekit import mixture
from latekit.mixture import (
    MixtureParams,
    MixtureQuantileTable,
    chisq_cdf,
    chisq_quantile,
    lambda_quantile,
    normal_quantile,
    quantile_table,
    sample_truncated_component,
    threshold_from_pa,
)
from oracles import reference_chisq_cdf

Z975 = 1.959963984540054
SRC = Path(__file__).resolve().parents[1] / "src"


def test_normal_quantile_standard_constant():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_normal_quantile_matches_scipy():
    for p in (1e-8, 1e-4, 0.01, 0.2, 0.5, 0.77, 0.975, 0.999, 1 - 1e-8):
        assert normal_quantile(p) == pytest.approx(norm.ppf(p), abs=1e-10)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
def test_normal_quantile_domain(bad):
    with pytest.raises(ValueError):
        normal_quantile(bad)


def _quantile_grid():
    """~14,000 probabilities over [1e-15, 1 - 1e-15]: log-spaced into both
    tails, evenly spaced, and within 1e-6 of 0.5."""
    tail = np.logspace(-15, np.log10(0.5), 5000)
    return np.unique(np.concatenate([tail, 1.0 - tail, np.linspace(1e-15, 1 - 1e-15, 2000),
                                     0.5 + np.linspace(-1e-6, 1e-6, 2001)]))


def test_normal_quantile_matches_ndtri_to_roundoff():
    p = _quantile_grid()
    got = np.array([normal_quantile(v) for v in p.tolist()])
    want = ndtri(p)
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_normal_quantile_reflects_exactly():
    # the two-sided sets read z_{1-a/2} as minus z_{a/2}
    p = _quantile_grid()
    for v in p[p >= 0.5].tolist():
        assert normal_quantile(v) == -normal_quantile(1.0 - v)


def test_chisq_cdf_at_zero():
    for k in (1, 2, 5, 11):
        assert chisq_cdf(0.0, k) == 0.0


@pytest.mark.parametrize("x", [19000.0, 19500.0, 20000.0])
def test_chisq_cdf_raises_where_its_steps_do_not_converge(monkeypatch, x):
    # 400 steps of the series just below the mean left k = 20,000 off scipy
    # by up to 3.4e-5, returned silently; held at 400 steps, it raises
    monkeypatch.setattr(mixture, "_STEPS_PER_ROOT", 0)
    with pytest.raises(ValueError, match="^chi-square CDF with k = 20000 did not converge "
                                         "in 400 steps"):
        chisq_cdf(np.array([1.0, x]), 20000)


@pytest.mark.parametrize("k", [6000, 20000])
def test_chisq_cdf_and_quantile_match_scipy_for_many_degrees_of_freedom(k):
    # the step cap grows with k: 400 steps raised from k = 6,000 on
    xs = k + math.sqrt(2.0 * k) * np.linspace(-6.0, 6.0, 49)
    assert np.allclose(chisq_cdf(xs, k), chi2.cdf(xs, k), rtol=1e-9, atol=0.0)
    for p in (0.01, 0.5, 0.99):
        assert chisq_quantile(p, k) == pytest.approx(chi2.ppf(p, k), rel=1e-9)


def test_chisq_cdf_exponential_closed_form():
    assert chisq_cdf(1.386294361119891, 2) == pytest.approx(0.5, abs=1e-9)


def test_chisq_cdf_matches_scipy():
    for k in (1, 2, 3, 5, 8, 20):
        for x in (1e-6, 0.1, 0.554, 1.0, 3.0, k, 2.0 * k + 5, 60.0):
            assert chisq_cdf(x, k) == pytest.approx(chi2.cdf(x, k), abs=1e-12, rel=1e-10)


def test_chisq_cdf_vectorized():
    xs = np.array([0.0, 0.5, 2.0, 10.0])
    out = chisq_cdf(xs, 3)
    assert out.shape == xs.shape
    assert np.allclose(out, chi2.cdf(xs, 3), atol=1e-12)


@pytest.mark.parametrize("k", range(1, 9))
def test_chisq_cdf_has_the_bits_of_the_one_number_loops(k):
    # the 16,385-point grid a truncated table's draws invert, and a wider
    # one that takes the continued fraction
    grids = [np.linspace(0.0, threshold_from_pa(p_a, k), 16385)
             for p_a in (0.001, 0.01, 0.1, 0.5)]
    grids.append(np.concatenate([np.linspace(0.0, 80.0, 2001), [np.inf, 1e-300, 1e300]]))
    for grid in grids:
        reference = np.array([reference_chisq_cdf(float(x), k) for x in grid])
        assert chisq_cdf(grid, k).tobytes() == reference.tobytes()
        assert chisq_cdf(grid[-2], k) == reference[-2]
    assert np.isnan(chisq_cdf(np.array([np.nan]), k)).all()
    assert chisq_cdf(grid.reshape(-1, 3)[:4], k).shape == (4, 3)
    with pytest.raises(ValueError, match="x must be >= 0"):
        chisq_cdf(np.array([1.0, -1e-300]), k)


def test_chisq_quantile_roundtrip():
    for k in (1, 4, 9):
        for p in (0.01, 0.3, 0.95):
            assert chisq_cdf(chisq_quantile(p, k), k) == pytest.approx(p, abs=1e-9)


def test_component_truncation_bound(rng):
    a = threshold_from_pa(0.05, 4)
    draws = sample_truncated_component(MixtureParams(k=4, a=a, alpha=0.025), rng, 20_000)
    assert np.max(np.abs(draws)) <= math.sqrt(a) + 1e-12


def test_component_standard_normal_when_untruncated_k1(rng):
    params = MixtureParams(k=1, a=math.inf, alpha=0.025)
    draws = sample_truncated_component(params, rng, 1_000_000)
    assert abs(draws.mean()) < 0.005
    assert draws.var() == pytest.approx(1.0, abs=0.01)
    assert np.quantile(draws, 0.975) == pytest.approx(Z975, abs=0.02)


def test_component_symmetric_mean_zero(rng):
    a = threshold_from_pa(0.01, 5)
    draws = sample_truncated_component(MixtureParams(k=5, a=a, alpha=0.025), rng,
                                       1_000_000)
    assert abs(draws.mean()) < 0.005


def test_truncated_inverse_cdf_matches_scipy(rng):
    # quantile-level agreement between the sampler and an exact oracle
    a = threshold_from_pa(0.01, 5)
    u = rng.uniform(0, 1, 50_000)
    mine = mixture._truncated_chisq_inverse(5, a)(u)
    exact = chi2.ppf(u * chi2.cdf(a, 5), 5)
    assert np.max(np.abs(mine - exact)) < 1e-6


def _table_uniforms(draw_count=1_600_000, seed=mixture._TABLE_SEED):
    """The uniforms a table's truncated radii are drawn from."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(draw_count)
    rng.integers(0, 2, size=draw_count)
    return rng.uniform(0.0, 1.0, size=draw_count)


def _interp_inverse(k, a, u):
    """The inverse through np.interp, as the table draws were made before the
    guide table: the oracle of the guide-table inverse."""
    fa = chisq_cdf(a, k)
    grid = np.linspace(0.0, a, 16385)
    cdf = chisq_cdf(grid, k)
    cdf[-1] = fa
    return np.interp(u * fa, cdf, grid), cdf, fa


@pytest.mark.parametrize("k", [1, 3, 5, 8])
def test_guide_table_inverse_is_np_interp_bit_for_bit(k):
    a = threshold_from_pa(0.01, k)
    inverse = mixture._truncated_chisq_inverse(k, a)
    table = _table_uniforms()
    want, cdf, fa = _interp_inverse(k, a, table)
    assert inverse(table).tobytes() == want.tobytes()
    # u = 0, u * F(a) == F(a), and values of u * F(a) on grid nodes (the
    # exact-node branch of np.interp)
    on_node = np.concatenate([np.nextafter(cdf / fa, d) for d in (-1.0, 0.0, 2.0)])
    on_node = on_node[(on_node >= 0.0) & np.isin(on_node * fa, cdf)]
    assert np.unique(on_node * fa).size > 1000
    edges = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 0.0)], on_node])
    assert (edges * fa == fa).sum() >= 1
    got = inverse(edges)
    assert got.tobytes() == _interp_inverse(k, a, edges)[0].tobytes()
    assert got[0] == 0.0 and got[1] == a


def test_lambda_at_zero_is_normal_quantile():
    a = threshold_from_pa(0.01, 5)
    val = lambda_quantile(MixtureParams(k=5, a=a, alpha=0.025), 0.0)
    assert val == pytest.approx(1.9600, abs=0.01)


def test_lambda_untruncated_shortcircuit():
    params = MixtureParams(k=1, a=math.inf, alpha=0.025)
    for rho in (0.0, 0.4, 1.0):
        assert lambda_quantile(params, rho) == pytest.approx(Z975, abs=1e-12)


def test_lambda_at_one_bounded_by_sqrt_a():
    a = threshold_from_pa(0.01, 5)
    val = lambda_quantile(MixtureParams(k=5, a=a, alpha=0.025), 1.0)
    assert 0.0 < val <= math.sqrt(a)


def test_lambda_at_one_matches_independent_oracle():
    # rejection-sampling oracle with its own seed, no shared sampling code
    a = threshold_from_pa(0.01, 5)
    rng = np.random.default_rng(987654)
    kept = []
    while len(kept) < 1_000_000:
        c = rng.chisquare(5, 400_000)
        kept.extend(c[c <= a].tolist())
    c = np.array(kept[:1_000_000])
    s = rng.integers(0, 2, len(c)) * 2 - 1
    b = rng.beta(0.5, 2.0, len(c))
    oracle = np.quantile(np.sqrt(c) * s * np.sqrt(b), 0.975)
    val = lambda_quantile(MixtureParams(k=5, a=a, alpha=0.025), 1.0)
    assert val == pytest.approx(oracle, abs=0.02)


def test_table_monotone_and_bounded():
    a = threshold_from_pa(0.01, 5)
    table = quantile_table(MixtureParams(k=5, a=a, alpha=0.025))
    assert np.all(np.diff(table.lambda_values) <= 1e-12)
    assert np.all(table.lambda_values >= 0.0)
    assert np.all(table.lambda_values <= Z975 + 1e-6)
    # Monte Carlo noise before the isotonic projection must be small
    violations = np.maximum(np.diff(table.raw_values), 0.0)
    assert np.max(violations, initial=0.0) < 0.005


def test_table_two_seed_stability():
    a = threshold_from_pa(0.01, 5)
    params = MixtureParams(k=5, a=a, alpha=0.025)
    t1 = MixtureQuantileTable.build(params, seed=111)
    t2 = MixtureQuantileTable.build(params, seed=222)
    assert np.max(np.abs(t1.lambda_values - t2.lambda_values)) < 0.01


def test_table_cache_returns_same_object():
    a = threshold_from_pa(0.01, 5)
    params = MixtureParams(k=5, a=a, alpha=0.025)
    assert quantile_table(params) is quantile_table(params)


def test_lambda_rejects_rho_outside_unit_interval():
    params = MixtureParams(k=2, a=1.0, alpha=0.025)
    with pytest.raises(ValueError):
        lambda_quantile(params, -0.01)
    with pytest.raises(ValueError):
        lambda_quantile(params, 1.01)


def test_interpolation_between_grid_points():
    a = threshold_from_pa(0.01, 5)
    params = MixtureParams(k=5, a=a, alpha=0.025)
    mid = lambda_quantile(params, 0.505)
    lo, hi = lambda_quantile(params, 0.50), lambda_quantile(params, 0.51)
    assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12


def reference_build(params, draw_count, seed, grid_size):
    """The table build as a full np.quantile per rho: the oracle of the fast build."""
    rng = np.random.default_rng(seed)
    eps0 = rng.standard_normal(draw_count)
    comp = sample_truncated_component(params, rng, draw_count)
    q = 1.0 - params.alpha
    raw = np.array([np.quantile(math.sqrt(1.0 - rho) * eps0 + math.sqrt(rho) * comp, q)
                    for rho in np.linspace(0.0, 1.0, grid_size)])
    values = np.clip(mixture._isotonic_nonincreasing(raw), 0.0, normal_quantile(q))
    return raw, values


@pytest.fixture
def fresh_draws(monkeypatch):
    """Isolate the shared-draw entry and count full-partition fallbacks."""
    monkeypatch.setattr(mixture, "_shared_draws", (None, None))
    fallbacks = []
    full = mixture._mixed_quantile

    def counting(eps0, comp, rho, q):
        fallbacks.append(rho)
        return full(eps0, comp, rho, q)

    monkeypatch.setattr(mixture, "_mixed_quantile", counting)
    return fallbacks


def assert_matches_reference(params, draw_count, seed, grid_size):
    table = MixtureQuantileTable.build(params, draw_count=draw_count, seed=seed,
                                       grid_size=grid_size)
    raw, values = reference_build(params, draw_count, seed, grid_size)
    assert np.array_equal(table.raw_values, raw)
    assert np.array_equal(table.lambda_values, values)


@pytest.mark.parametrize("alpha", [0.005, 0.025, 0.075, 0.25, 0.49])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_fast_build_matches_full_quantile(k, truncated, alpha, fresh_draws):
    a = threshold_from_pa(0.01, k) if truncated else math.inf
    assert_matches_reference(MixtureParams(k=k, a=a, alpha=alpha), 20_000, 31, 11)
    assert fresh_draws == []


@pytest.mark.parametrize("draw_count, grid_size", [(200_000, 101), (200_000, 2),
                                                   (20_000, 2), (20_000, 101)])
@pytest.mark.parametrize("alpha", [0.025, 0.49])
def test_fast_build_matches_full_quantile_sizes(draw_count, grid_size, alpha,
                                                fresh_draws):
    a = threshold_from_pa(0.01, 5)
    assert_matches_reference(MixtureParams(k=5, a=a, alpha=alpha), draw_count, 47,
                             grid_size)
    assert fresh_draws == []


@pytest.mark.parametrize("grid_size", [2, 101])
@pytest.mark.parametrize("alpha", [0.005, 0.49])
@pytest.mark.parametrize("truncated", [True, False])
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("draw_count", [50, 1000])
def test_band_sweep_matches_full_quantile_with_empty_bins(draw_count, k, truncated, alpha,
                                                          grid_size, fresh_draws):
    # fewer draws than the pilot and than the bins: the pilot is the whole
    # sample and many bins hold nothing
    a = threshold_from_pa(0.01, k) if truncated else math.inf
    assert_matches_reference(MixtureParams(k=k, a=a, alpha=alpha), draw_count, 31,
                             grid_size)
    sizes = np.diff(mixture._shared_draws[1].starts)
    assert (sizes == 0).any() and sizes.sum() == draw_count
    assert fresh_draws == []


@pytest.mark.parametrize("q", [0.975, 0.6, 0.5])
@pytest.mark.parametrize("seed", [3, 4])
def test_band_sweep_keeps_its_bits_on_near_ties(seed, q, fresh_draws):
    # at rho = 1/2 every mixed value lies within ~1e-13 of 1, inside the
    # slack, with eps0 spread over every bin: a draw may be counted or
    # skipped unmixed only where its bin's bounds decide it despite the
    # rounding of the thresholds
    rng = np.random.default_rng(seed)
    s = math.sqrt(0.5)
    eps0 = rng.uniform(-3.0, 3.0, 4000)
    comp = (1.0 - s * eps0) / s + rng.uniform(-1e-13, 1e-13, 4000)
    rho_grid = np.linspace(0.0, 1.0, 3)
    def place(out, slots):
        out[np.concatenate(list(slots()))] = comp

    raw = mixture._upper_quantiles(mixture._draw_layout(eps0.copy(), place), rho_grid, q)
    full = [np.quantile(math.sqrt(1.0 - rho) * eps0 + math.sqrt(rho) * comp, q)
            for rho in rho_grid]
    assert raw.tobytes() == np.array(full).tobytes()
    assert fresh_draws == []


@pytest.mark.parametrize("k, truncated", [(1, True), (2, True), (5, True), (3, False)])
def test_in_slot_component_is_the_sampler_draw_for_draw(k, truncated, fresh_draws):
    a = threshold_from_pa(0.01, k) if truncated else math.inf
    params = MixtureParams(k=k, a=a, alpha=0.025)
    n = mixture._PILOT + 3 * mixture._CHUNK + 17
    rng = np.random.default_rng(5)
    eps0 = rng.standard_normal(n)
    comp = sample_truncated_component(params, rng, n)
    # any slots, in chunks of any size
    rng = np.random.default_rng(5)
    rng.standard_normal(n)
    perm = np.random.default_rng(0).permutation(n)
    out = np.empty(n)
    mixture._component_into(params, rng, out, lambda: iter(np.array_split(perm, 7)))
    assert out[perm].tobytes() == comp.tobytes()
    # the layout holds every (eps0, comp) pair, in eps0 bins each sorted by comp
    draws = mixture._table_draws(params, n, 5)
    bins = np.repeat(np.arange(mixture._BINS), np.diff(draws.starts))
    assert bins.size == n
    assert np.all(np.diff(draws.comp)[np.diff(bins) == 0] >= 0)
    # no draw of a bin lies above a draw of a later bin
    step = np.flatnonzero(np.diff(bins))
    below = np.maximum.accumulate(draws.eps0)[step]
    above = np.minimum.accumulate(draws.eps0[::-1])[::-1][step + 1]
    assert np.all(below <= above)
    got = np.lexsort((draws.eps0, draws.comp))
    want = np.lexsort((eps0, comp))
    assert draws.eps0[got].tobytes() == eps0[want].tobytes()
    assert draws.comp[got].tobytes() == comp[want].tobytes()
    m = mixture._PILOT
    assert draws.pilot_eps0.tobytes() == eps0[:m].tobytes()
    assert draws.pilot_comp.tobytes() == comp[:m].tobytes()


def test_band_sweep_is_the_full_quantile_on_the_rem_study_tables(fresh_draws):
    # the two rem_study tables (k = 5, p_a = 0.01, alpha 0.025 and 0.075,
    # which share their draws) at full size, without a fallback
    params = MixtureParams(k=5, a=threshold_from_pa(0.01, 5), alpha=0.025)
    draws = mixture._table_draws(params, mixture._DEFAULT_DRAWS, mixture._TABLE_SEED)
    rho_grid = np.linspace(0.0, 1.0, 5)
    for alpha in (0.025, 0.075):
        q = 1.0 - alpha
        raw = mixture._upper_quantiles(draws, rho_grid, q)
        full = [np.quantile(math.sqrt(1.0 - rho) * draws.eps0 + math.sqrt(rho) * draws.comp, q)
                for rho in rho_grid]
        assert raw.tobytes() == np.array(full).tobytes()
    assert fresh_draws == []


def test_fast_build_fallback_matches_full_quantile(fresh_draws, monkeypatch):
    # a negative band half-width leaves no value in the band, so every rho
    # takes the full partition
    monkeypatch.setattr(mixture, "_PILOT_SIGMAS", -6.0)
    a = threshold_from_pa(0.05, 3)
    assert_matches_reference(MixtureParams(k=3, a=a, alpha=0.025), 20_000, 5, 11)
    assert len(fresh_draws) == 11


def test_shared_draws_leave_tables_unchanged(fresh_draws, monkeypatch):
    a = threshold_from_pa(0.01, 5)
    table_a = MixtureParams(k=5, a=a, alpha=0.025)
    table_b = MixtureParams(k=5, a=a, alpha=0.075)
    build = dict(draw_count=50_000, seed=9, grid_size=21)
    first = MixtureQuantileTable.build(table_a, **build)
    key, draws = mixture._shared_draws
    assert key == (5, a, 50_000, 9)
    arrays = [v for v in vars(draws).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7 and not any(v.flags.writeable for v in arrays)
    before = [v.copy() for v in arrays]
    MixtureQuantileTable.build(table_b, **build)
    assert mixture._shared_draws[1] is draws
    assert all(np.array_equal(v, w) for v, w in zip(arrays, before))
    again = MixtureQuantileTable.build(table_a, **build)
    monkeypatch.setattr(mixture, "_shared_draws", (None, None))
    redrawn = MixtureQuantileTable.build(table_a, **build)
    for table in (again, redrawn):
        assert table.raw_values.tobytes() == first.raw_values.tobytes()
        assert table.lambda_values.tobytes() == first.lambda_values.tobytes()


def test_table_build_peak_memory(fresh_draws, monkeypatch):
    # the normals are placed into their bins and let go, and the component is
    # drawn in chunks straight into its slots: beyond the two placed arrays
    # only the uint8 bins and a chunk's temporaries are held
    n = 200_000
    params = MixtureParams(k=5, a=threshold_from_pa(0.01, 5), alpha=0.025)
    MixtureQuantileTable.build(params, draw_count=1000)  # first-call imports
    monkeypatch.setattr(mixture, "_shared_draws", (None, None))
    tracemalloc.start()
    try:
        MixtureQuantileTable.build(params, draw_count=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n


def test_table_build_resident_memory():
    # in a fresh process, with every array over 4 MB mapped on its own and
    # the heap trimmed, the two rem_study tables grow the peak resident set
    # by at most four 1.6M-draw arrays
    probe = ("import resource\n"
             "from latekit.mixture import MixtureParams, quantile_table, threshold_from_pa\n"
             "a = threshold_from_pa(0.01, 5)\n"
             "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "for alpha in (0.025, 0.075):\n"
             "    quantile_table(MixtureParams(k=5, a=a, alpha=alpha))\n"
             "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(before, after)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "MALLOC_MMAP_THRESHOLD_": "4194304", "MALLOC_TRIM_THRESHOLD_": "33554432"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    before, after = map(int, out.stdout.split())
    assert (after - before) * 1024 <= 4 * 8 * mixture._DEFAULT_DRAWS


def test_quantile_table_builds_once_under_threads(monkeypatch):
    monkeypatch.setattr(mixture, "_table_cache", {})
    builds = []
    real_build = MixtureQuantileTable.build.__func__

    def counting_build(cls, params):
        builds.append(params)
        time.sleep(0.05)  # hold the build open while the other threads arrive
        return real_build(cls, params, draw_count=20_000, grid_size=11)

    monkeypatch.setattr(MixtureQuantileTable, "build", classmethod(counting_build))
    params = MixtureParams(k=3, a=1.5, alpha=0.1)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        barrier.wait()
        results[i] = quantile_table(params)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert all(r is results[0] for r in results)


def test_table_build_keeps_its_bits_with_the_array_cdf(fresh_draws, monkeypatch):
    # the truncated draws invert a CDF grid; computed by the one-number
    # loops entry by entry, the table is the same to the bit
    params = MixtureParams(k=5, a=threshold_from_pa(0.01, 5), alpha=0.025)
    build = dict(draw_count=50_000, seed=9, grid_size=21)
    table = MixtureQuantileTable.build(params, **build)

    def per_entry(x, k):
        return np.vectorize(reference_chisq_cdf, otypes=[float])(x, k)

    monkeypatch.setattr(mixture, "chisq_cdf", per_entry)
    monkeypatch.setattr(mixture, "_shared_draws", (None, None))
    reference = MixtureQuantileTable.build(params, **build)
    assert table.raw_values.tobytes() == reference.raw_values.tobytes()
    assert table.lambda_values.tobytes() == reference.lambda_values.tobytes()
