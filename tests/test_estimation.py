import math

import numpy as np
import pytest

from latekit import simulation
from latekit.data_model import Dataset
from latekit.estimation import (
    Estimates,
    VarianceComponents,
    combined_variance,
    r2_of_tau,
    r2_star,
    r2_stars,
    variance_components,
)
from latekit.stats_core import summarize
from oracles import cell_draws, cell_families, random_dataset, reference_r2_star


# ---------------------------------------------------------------- oracles

def dense_components(ds):
    """From-scratch evaluation with explicit matrix algebra only."""
    z, y, w, x = ds.z, ds.y, ds.w.astype(float), ds.x
    n, k = ds.n, ds.k
    out = {}
    arms = {}
    for zv in (0, 1):
        mask = z == zv
        nz = mask.sum()
        yz, wz, xz = y[mask], w[mask], x[mask]
        xc = xz - xz.mean(axis=0)
        arms[zv] = {
            "n": nz,
            "s2y": np.sum((yz - yz.mean()) ** 2) / (nz - 1),
            "s2w": np.sum((wz - wz.mean()) ** 2) / (nz - 1),
            "syw": np.sum((yz - yz.mean()) * (wz - wz.mean())) / (nz - 1),
            "syx": xc.T @ (yz - yz.mean()) / (nz - 1),
            "swx": xc.T @ (wz - wz.mean()) / (nz - 1),
            "sxx": xc.T @ xc / (nz - 1),
        }
    n1, n0 = arms[1]["n"], arms[0]["n"]
    out["v_y"] = arms[1]["s2y"] / n1 + arms[0]["s2y"] / n0
    out["v_w"] = arms[1]["s2w"] / n1 + arms[0]["s2w"] / n0
    out["c_yw"] = arms[1]["syw"] / n1 + arms[0]["syw"] / n0
    if k:
        xc_all = x - x.mean(axis=0)
        sxx_inv = np.linalg.inv(xc_all.T @ xc_all / (n - 1))
        dy = arms[1]["syx"] - arms[0]["syx"]
        dw = arms[1]["swx"] - arms[0]["swx"]
        out["v_y_rem"] = out["v_y"] - dy @ sxx_inv @ dy / n
        out["v_w_rem"] = out["v_w"] - dw @ sxx_inv @ dw / n
        out["c_yw_rem"] = out["c_yw"] - dy @ sxx_inv @ dw / n
        proj = {}
        for zv in (0, 1):
            inv = np.linalg.inv(arms[zv]["sxx"])
            proj[zv] = {
                "yy": arms[zv]["syx"] @ inv @ arms[zv]["syx"],
                "ww": arms[zv]["swx"] @ inv @ arms[zv]["swx"],
                "yw": arms[zv]["syx"] @ inv @ arms[zv]["swx"],
            }
        out["v_y_proj"] = proj[1]["yy"] / n1 + proj[0]["yy"] / n0 - dy @ sxx_inv @ dy / n
        out["v_w_proj"] = proj[1]["ww"] / n1 + proj[0]["ww"] / n0 - dw @ sxx_inv @ dw / n
        out["c_yw_proj"] = proj[1]["yw"] / n1 + proj[0]["yw"] / n0 - dy @ sxx_inv @ dw / n
    return out


def component(comp, key):
    """The entry of ``comp`` that dense_components names ``key``, such as
    'c_yw_rem'."""
    for i, base in enumerate(("v_y", "c_yw", "v_w")):
        if key.startswith(base):
            return comp.family(key[len(base) + 1:] or "plain")[i]
    raise KeyError(key)


def grid_minimum_r2(components, points=1_000_000):
    """Minimize the clipped ratio over a tan-compactified grid including the
    limits at both infinities."""
    theta = np.linspace(-math.pi / 2, math.pi / 2, points)[1:-1]
    taus = np.tan(theta)
    p0, p1, p2 = components.family("proj")
    q0, q1, q2 = components.family("rem")
    num = p0 - 2 * taus * p1 + taus ** 2 * p2
    den = q0 - 2 * taus * q1 + taus ** 2 * q2
    vals = np.where(den > 0, np.clip(num / np.where(den > 0, den, 1.0), 0.0, 1.0), 0.0)
    limit = min(max(p2 / q2, 0.0), 1.0)
    return min(float(vals.min()), limit)


def random_components(rng, force_negative_den=False):
    """Random PSD-ish component sets resembling real data."""
    ds = random_dataset(rng, n=rng.integers(14, 40), k=int(rng.integers(1, 4)))
    return variance_components(summarize(ds, ds.z))


# ------------------------------------------------------------------ tests

def test_wald_basic():
    assert Estimates(2.0, 0.5).ratio == 4.0
    assert Estimates(0.0, 0.3).ratio == 0.0


def test_wald_undefined_signal():
    est = Estimates(1.0, 0.0)
    assert est.tau_w == 0.0
    assert math.isnan(est.ratio)


def test_components_match_dense_oracle(rng):
    for _ in range(15):
        ds = random_dataset(rng, n=int(rng.integers(12, 30)), k=int(rng.integers(1, 4)))
        comp = variance_components(summarize(ds, ds.z))
        oracle = dense_components(ds)
        for key, val in oracle.items():
            assert component(comp, key) == pytest.approx(val, rel=1e-10, abs=1e-14), key


def test_components_no_covariates(rng):
    ds = random_dataset(rng, n=16, k=0)
    comp = variance_components(summarize(ds, ds.z))
    assert comp.rem is None
    oracle = dense_components(ds)
    assert comp.plain[0] == pytest.approx(oracle["v_y"], rel=1e-12)


def test_uncorrelated_covariates_collapse_families():
    # covariates orthogonal to constant-within-arm outcomes: projection
    # family vanishes and the rerandomization family equals the plain one
    z = np.array([1, 1, 1, 0, 0, 0])
    y = np.where(z == 1, 2.0, 1.0)
    w = np.where(z == 1, 1, 0)
    x = np.array([[-1.0], [0.0], [1.0], [-1.0], [0.0], [1.0]])
    ds = Dataset(z=z, w=w, y=y, x=x)
    comp = variance_components(summarize(ds, ds.z))
    assert comp.rem[0] == pytest.approx(comp.plain[0], abs=1e-14)
    assert comp.rem[1] == pytest.approx(comp.plain[1], abs=1e-14)
    assert comp.proj[0] == pytest.approx(0.0, abs=1e-14)
    assert comp.proj[2] == pytest.approx(0.0, abs=1e-14)


def test_identical_outcome_and_receipt(rng):
    ds = random_dataset(rng, n=20, k=2)
    ds = Dataset(z=ds.z, w=ds.w, y=ds.w.astype(float), x=ds.x)
    comp = variance_components(summarize(ds, ds.z))
    assert comp.plain[0] == pytest.approx(comp.plain[2], rel=1e-12)
    assert comp.plain[1] == pytest.approx(comp.plain[2], rel=1e-12)
    assert comp.rem[0] == pytest.approx(comp.rem[2], rel=1e-12)
    assert comp.proj[0] == pytest.approx(comp.proj[2], rel=1e-12)


def test_moment_linearity_in_combined_outcome(rng):
    # within-arm variance of y - t*w equals the quadratic in the moments
    ds = random_dataset(rng, n=18, k=1)
    s = summarize(ds, ds.z)
    for t in (-1.0, 0.5, 2.5):
        combined = Dataset(z=ds.z, w=ds.w, y=ds.y - t * ds.w, x=ds.x)
        sc = summarize(combined, combined.z)
        for arm, arm_c in ((s.arm1, sc.arm1), (s.arm0, sc.arm0)):
            expected = arm.s2_y - 2 * t * arm.s_yw + t * t * arm.s2_w
            assert arm_c.s2_y == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_r2_zero_projection_family():
    comp = VarianceComponents((1.0, 0.0, 1.0), rem=(1.0, 0.0, 1.0), proj=(0.0, 0.0, 0.0), k=1)
    for tau in (-5.0, 0.0, 3.0):
        assert r2_of_tau(comp, tau).value == 0.0
    assert r2_star(comp).value == 0.0


def test_r2_proportional_quadratics():
    kappa = 0.3
    comp = VarianceComponents((2.0, 0.4, 1.0), rem=(2.0, 0.4, 1.0),
                              proj=(kappa * 2.0, kappa * 0.4, kappa * 1.0), k=1)
    for tau in (-2.0, 0.0, 1.7):
        assert r2_of_tau(comp, tau).value == pytest.approx(kappa, abs=1e-12)
    assert r2_star(comp).value == pytest.approx(kappa, abs=1e-10)


def test_r2_formula_matches_direct_evaluation(rng):
    for _ in range(10):
        comp = random_components(rng)
        tau = float(rng.normal(scale=3))
        num = comp.proj[0] - 2 * tau * comp.proj[1] + tau ** 2 * comp.proj[2]
        den = comp.rem[0] - 2 * tau * comp.rem[1] + tau ** 2 * comp.rem[2]
        expected = min(max(num / den, 0.0), 1.0) if den > 0 else 0.0
        assert r2_of_tau(comp, tau).value == pytest.approx(expected, abs=1e-12)


def test_r2_degenerate_denominator_flagged():
    comp = VarianceComponents((1.0, 0.0, 1.0), rem=(-0.5, 0.0, 0.1), proj=(0.2, 0.0, 0.05), k=1)
    res = r2_of_tau(comp, 0.0)
    assert res.value == 0.0 and res.degenerate


def test_r2_star_matches_grid_oracle(rng):
    for _ in range(60):
        comp = random_components(rng)
        best = r2_star(comp).value
        oracle = grid_minimum_r2(comp, points=200_001)
        assert best <= oracle + 1e-6
        assert best == pytest.approx(oracle, abs=1e-4)


def test_r2_star_is_global_minimum(rng):
    comp = random_components(rng)
    best = r2_star(comp).value
    for tau in np.linspace(-50, 50, 4001):
        assert best <= r2_of_tau(comp, float(tau)).value + 1e-6


def test_r2_star_w_only_constant():
    # with outcome identical to receipt the ratio is free of the candidate
    # value and equals the projection share of the receipt variance
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n=30, k=2)
    ds = Dataset(z=ds.z, w=ds.w, y=ds.w.astype(float), x=ds.x)
    comp = variance_components(summarize(ds, ds.z))
    expected = comp.proj[2] / comp.rem[2]
    for tau in (0.0, -3.0, 0.5, 7.0):
        if tau != 1.0:
            assert r2_of_tau(comp, tau).value == pytest.approx(expected, rel=1e-10)
    assert r2_star(comp).value == pytest.approx(min(max(expected, 0.0), 1.0), abs=1e-9)


def _r2_components(proj, rem) -> VarianceComponents:
    return VarianceComponents((1.0, 0.0, 1.0), rem, proj, k=1)


def _assert_r2_stars_match_reference(proj, rem, atol=1e-12):
    """r2_stars of the rows of (proj, rem) against the stationary-point
    search: the same degenerate flags, values within ``atol``, and the
    one-row r2_star the same bits as its row."""
    values, degenerate = r2_stars(proj, rem)
    for i in range(len(values)):
        comp = _r2_components(*([float(v[i]) for v in f] for f in (proj, rem)))
        ref = reference_r2_star(comp)
        assert bool(degenerate[i]) == ref.degenerate, i
        assert abs(values[i] - ref.value) <= atol, (i, values[i], ref.value)
        assert r2_star(comp) == (values[i], degenerate[i])


@pytest.mark.parametrize("seed", [20240901, 777])
def test_r2_stars_match_the_search_on_every_rem_draw(seed):
    tau_w = (0.05, 0.10, 0.15, 0.2, 0.3, 0.5)
    cfg = simulation.StudyConfig(n=200, k=5, tau_w=tau_w, design="rem", p_a=0.01,
                                 reps=40, seed=seed)
    for cell, target in enumerate(tau_w):
        pop, base, _, zs, _ = cell_draws(cfg, cell, target)
        _, _, families, errors = cell_families(pop, zs, base)
        assert not errors
        _assert_r2_stars_match_reference(families["proj"], families["rem"])


def test_r2_stars_flags_and_limits_match_the_search():
    # (projection family P, rerandomization family Q) as (p0, p1, p2) for
    # p0 - 2 p1 t + p2 t^2; the tolerance on Q's discriminant q1^2 - q0 q2 is
    # 1e-12 max(q1^2, |q0 q2|), here 1e-12
    rows = [
        ((0.5, 0.2, 0.3), (1.0, 0.0, 0.0)),  # q2 = 0
        ((0.5, 0.2, 0.3), (1.0, 0.0, -0.1)),  # q2 < 0
        ((0.5, 0.2, 0.3), (1.0 - 2e-12, 1.0, 1.0)),  # discriminant just above
        ((0.5, 0.2, 0.3), (1.0 - 5e-13, 1.0, 1.0)),  # just below: a double root
        ((0.3, 0.3, 0.3), (1.0 - 5e-13, 1.0, 1.0)),
        ((0.5, 0.2, 0.3), (1.0, 1.0, 1.0)),  # exact double root of Q
        ((0.3, 0.3, 0.3), (1.0, 1.0, 1.0)),  # P with Q's double root
        ((0.0, 0.3, 0.3), (1.0, 1.0, 1.0)),  # P(t_c) = 0, sign change at t_c
        ((0.0, 0.0, 0.0), (1.0, 0.2, 0.5)),  # P = 0
        ((0.3, 0.06, 0.15), (1.0, 0.2, 0.5)),  # P = 0.3 Q
        ((0.1, 0.5, 0.2), (1.0, 0.2, 0.5)),  # indefinite P
        ((-0.1, 0.0, 0.2), (1.0, 0.2, 0.5)),  # P(t_c) < 0
        ((3.0, 0.2, 2.0), (1.0, 0.2, 0.5)),  # P > Q: clipped at 1
    ]
    proj, rem = (np.array(f).T for f in zip(*rows))
    _assert_r2_stars_match_reference(proj, rem)
    values, degenerate = r2_stars(proj, rem)
    assert degenerate.tolist() == [True] * 3 + [False] * 10
    assert values[[6, 9]].tolist() == [0.3, 0.3]
    assert values[[7, 8, 10, 11]].tolist() == [0.0] * 4 and values[12] == 1.0
    # outcome identical to receipt: P and Q share their exact double root
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n=30, k=2)
    comp = variance_components(summarize(Dataset(z=ds.z, w=ds.w, y=ds.w.astype(float),
                                                 x=ds.x), ds.z))
    assert r2_star(comp) == reference_r2_star(comp)
    assert r2_star(comp).value == min(max(comp.proj[2] / comp.rem[2], 0.0), 1.0)


def test_r2_stars_match_a_high_precision_oracle():
    # the smaller root of det(P - lambda Q) = 0 at 80 digits, on random
    # families with Q of reciprocal condition >= 1e-4, their vertex moved
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    gen = np.random.default_rng(11)
    rows = []
    while len(rows) < 500:
        m, n = gen.standard_normal((2, 2, 2))
        h = gen.uniform(-10.0, 10.0)  # the form of (1, t - h)
        p, q = (((f[0, 0] - 2.0 * f[0, 1] * h + f[1, 1] * h * h), f[1, 1] * h - f[0, 1],
                 f[1, 1]) for f in (n @ n.T if gen.random() < 0.7 else (n + n.T) / 2.0,
                                    m @ m.T))
        if 1.0 / np.linalg.cond([[q[0], -q[1]], [-q[1], q[2]]]) >= 1e-4:
            rows.append((p, q))
    proj, rem = (np.array(f).T for f in zip(*rows))
    values, degenerate = r2_stars(proj, rem)
    assert not degenerate.any()
    for (p0, p1, p2), (q0, q1, q2), value in zip(proj.T, rem.T, values):
        p0, p1, p2, q0, q1, q2 = map(mpmath.mpf, (p0, p1, p2, q0, q1, q2))
        a, b, c = q0 * q2 - q1 * q1, p0 * q2 + p2 * q0 - 2 * p1 * q1, p0 * p2 - p1 * p1
        lam = (b - mpmath.sqrt(b * b - 4 * a * c)) / (2 * a)
        assert abs(value - float(min(max(lam, 0), 1))) <= 1e-11


def test_plain_quadratic_nonnegative(rng):
    for _ in range(10):
        comp = random_components(rng)
        for tau in np.linspace(-20, 20, 101):
            val = comp.plain[0] - 2 * tau * comp.plain[1] + tau ** 2 * comp.plain[2]
            assert val >= -1e-12


def test_rem_quadratic_below_plain(rng):
    for _ in range(10):
        comp = random_components(rng)
        for tau in np.linspace(-20, 20, 101):
            plain = comp.plain[0] - 2 * tau * comp.plain[1] + tau ** 2 * comp.plain[2]
            rem = comp.rem[0] - 2 * tau * comp.rem[1] + tau ** 2 * comp.rem[2]
            assert rem <= plain + 1e-12


def test_combined_variance_at_zero(rng):
    comp = random_components(rng)
    assert combined_variance(comp, 0.0, "plain").value == pytest.approx(comp.plain[0])
    assert combined_variance(comp, 0.0, "rem").value == pytest.approx(
        max(comp.rem[0], 0.0))


def test_combined_variance_floor():
    comp = VarianceComponents((1.0, 0.0, 1.0), rem=(-0.01, 0.0, 0.001), proj=(0.0, 0.0, 0.0), k=1)
    res = combined_variance(comp, 0.0, "rem")
    assert res.value == 0.0 and res.floored


def test_combined_variance_matches_direct(rng):
    for _ in range(10):
        comp = random_components(rng)
        tau = float(rng.normal(scale=2))
        expected = comp.plain[0] - 2 * tau * comp.plain[1] + tau ** 2 * comp.plain[2]
        assert combined_variance(comp, tau, "plain").value == pytest.approx(
            expected, rel=1e-12)


def test_combined_variance_rejects_nonfinite():
    comp = VarianceComponents((1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        combined_variance(comp, math.inf, "plain")
