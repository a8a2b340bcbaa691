import numpy as np
import pytest

from latekit.data_model import Dataset, DesignSpec
from latekit.design import Covariates, draw_assignment
from latekit.estimation import _arm_projections, plain_components, variance_components
from latekit.exceptions import (
    DegenerateCovariatesError,
    LeverageOnePointError,
    RankDeficientDesignError,
)
from latekit.stats_core import (
    _arm_indices,
    fit_interacted,
    fit_interacted_pair,
    sandwich_cov,
    summarize,
)
from oracles import (
    diff_in_means,
    random_dataset,
    reference_arm_indices,
    reference_plain_components,
    reference_summarize,
    reference_variance_components,
)


# ---------------------------------------------------------------- oracles

def pairwise_variance(q):
    """U-statistic identity: S^2 = sum_{i<j} (q_i - q_j)^2 / (n(n-1))."""
    n = len(q)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += (q[i] - q[j]) ** 2
    return total / (2 * n * (n - 1))


def pairwise_covariance(q, r):
    n = len(q)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += (q[i] - q[j]) * (r[i] - r[j])
    return total / (2 * n * (n - 1))


def normal_equations_fit(omega, q):
    gram_inv = np.linalg.inv(omega.T @ omega)
    coef = gram_inv @ omega.T @ q
    resid = q - omega @ coef
    hat = np.einsum("ij,jk,ik->i", omega, gram_inv, omega)
    return coef, resid, hat, gram_inv


def dense_sandwich(omega, u_a, u_b, weights):
    gram_inv = np.linalg.inv(omega.T @ omega)
    meat = np.zeros((omega.shape[1], omega.shape[1]))
    for i in range(omega.shape[0]):
        meat += weights[i] * u_a[i] * u_b[i] * np.outer(omega[i], omega[i])
    return (gram_inv @ meat @ gram_inv)[1, 1]


def build_design(ds):
    z = ds.z.astype(float)
    return np.column_stack([np.ones(ds.n), z, ds.x, z[:, None] * ds.x])


# ----------------------------------------------------------- moment tests

def test_constant_within_arm_gives_zero_moments(rng):
    ds = random_dataset(rng, n=12, k=2)
    ds = Dataset(z=ds.z, w=ds.w, y=np.where(ds.z == 1, 3.0, -1.0), x=ds.x)
    arm1, _ = summarize(ds, ds.z).covariate_arms
    assert arm1.s2_y[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(arm1.s_yx[0], 0.0, atol=1e-14)


def test_perfect_projection_attains_total_variance(rng):
    ds = random_dataset(rng, n=16, k=2)
    beta = np.array([1.5, -2.0])
    y = ds.x @ beta
    ds = Dataset(z=ds.z, w=ds.w, y=y, x=ds.x)
    for arm in summarize(ds, ds.z).covariate_arms:
        (s2_y_proj, _, _), _ = _arm_projections(arm)
        assert s2_y_proj[0] == pytest.approx(arm.s2_y[0], abs=1e-10)


def test_moments_match_pairwise_oracle(rng):
    ds = random_dataset(rng, n=10, k=2)
    for zval, arm in zip((1, 0), summarize(ds, ds.z).covariate_arms):
        mask = ds.z == zval
        y, w, x = ds.y[mask], ds.w[mask].astype(float), ds.x[mask]
        assert arm.s2_y[0] == pytest.approx(pairwise_variance(y), rel=1e-8)
        assert arm.s2_w[0] == pytest.approx(pairwise_variance(w), rel=1e-8, abs=1e-12)
        assert arm.s_yw[0] == pytest.approx(pairwise_covariance(y, w), rel=1e-8, abs=1e-12)
        for col in range(2):
            assert arm.s_yx[0, col] == pytest.approx(
                pairwise_covariance(y, x[:, col]), rel=1e-8, abs=1e-12)
            for col2 in range(2):
                assert arm.sxx[0, col, col2] == pytest.approx(
                    pairwise_covariance(x[:, col], x[:, col2]), rel=1e-8, abs=1e-12)


def test_projection_bounded_by_total(rng):
    for _ in range(10):
        ds = random_dataset(rng, n=24, k=3)
        for arm in summarize(ds, ds.z).covariate_arms:
            (s2_y_proj, _, s2_w_proj), _ = _arm_projections(arm)
            assert s2_y_proj[0] <= arm.s2_y[0] + 1e-10
            assert s2_w_proj[0] <= arm.s2_w[0] + 1e-10


def test_covariate_covariance_centering_invariance(rng):
    # the cross-covariance is the same whether the arm mean or the
    # full-sample mean centers the non-covariate variable
    ds = random_dataset(rng, n=14, k=2)
    for zval, arm in zip((1, 0), summarize(ds, ds.z).covariate_arms):
        mask = ds.z == zval
        y, x = ds.y[mask], ds.x[mask]
        xc = x - x.mean(axis=0)
        nz = mask.sum()
        with_full_mean = xc.T @ (y - ds.y.mean()) / (nz - 1)
        assert np.allclose(arm.s_yx[0], with_full_mean, atol=1e-12)


# ----------------------------------------- the kernel against the scalar code

def _kernel_datasets(rng, count):
    """Datasets of 12 to 139 units with unequal arms and 0 to 4 covariates,
    some offset far from zero or scaled far apart, some with a constant
    receipt; covariates are centered only sometimes, as summarize allows."""
    for i in range(count):
        n = int(rng.integers(12, 140))
        k = int(rng.integers(0, 5))
        n1 = int(rng.integers(2, n - 1))
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:n1]] = 1
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2.5, 2.5, k)
        if i % 3 == 0:
            x += 10.0 ** rng.uniform(0, 8, k) * rng.choice([-1, 1], k)
        elif i % 3 == 1:
            x -= x.mean(axis=0)
        if i % 5 == 0:
            w = z.copy() if i % 2 else np.ones(n, dtype=int)
        else:
            w = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
        noise = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        y = x @ rng.standard_normal(k) + 2.0 * w + noise
        yield Dataset(z=z, w=w, y=y, x=x)


def _components_or_error(components, summary):
    try:
        return components(summary)
    except DegenerateCovariatesError as exc:
        return type(exc), str(exc)


def _assert_one_row_is_reference(ds):
    s, ref = summarize(ds, ds.z), reference_summarize(ds, ds.z)
    assert (s.n1, s.n0, s.tau_y, s.tau_w) == (ref.n1, ref.n0, ref.tau_y, ref.tau_w)
    for arm, ref_arm in zip((s.arm1, s.arm0, *s.covariate_arms), (ref.arm1, ref.arm0) * 2):
        for name in ("y_mean", "w_mean", "s2_y", "s2_w", "s_yw"):
            assert getattr(arm, name)[0] == getattr(ref_arm, name), name
    for arm, ref_arm in zip(s.covariate_arms, (ref.arm1, ref.arm0)):
        for name in ("s_yx", "s_wx", "sxx"):
            assert np.array_equal(getattr(arm, name)[0], getattr(ref_arm, name)), name
    assert plain_components(s) == reference_plain_components(ref)
    got = _components_or_error(variance_components, s)
    assert got == _components_or_error(reference_variance_components, ref)
    return got


def test_one_row_kernel_is_the_scalar_arithmetic_bit_for_bit(rng):
    outcomes = [_assert_one_row_is_reference(ds) for ds in _kernel_datasets(rng, 400)]
    # most datasets reach the rerandomization and projection families
    assert sum(getattr(o, "rem", None) is not None for o in outcomes) > 250


@pytest.mark.parametrize("n1,k,duplicate,message", [
    (3, 4, False, "within-arm covariate covariance is numerically singular"),
    (14, 4, False, "within-arm covariate covariance is numerically singular"),
    (10, 2, True, "covariate covariance is numerically singular"),
])
def test_one_row_kernel_raises_the_scalar_error(rng, n1, k, duplicate, message):
    # arms of at most k units; or a repeated covariate column, which makes
    # the full covariance singular before any arm is looked at
    n = 17 if n1 > 10 else 20
    x = rng.standard_normal((n, k))
    if duplicate:
        x[:, 1] = x[:, 0]
    z = np.zeros(n, dtype=int)
    z[:n1] = 1
    ds = Dataset(z=z, w=(rng.random(n) < 0.5).astype(int), y=rng.standard_normal(n), x=x)
    assert _assert_one_row_is_reference(ds) == (DegenerateCovariatesError, message)


def test_diff_in_means():
    ds = Dataset(z=[1, 1, 0, 0], w=[0, 0, 0, 0], y=[3.0, 1.0, 2.0, 0.0],
                 x=np.zeros((4, 0)))
    assert diff_in_means(ds, ds.z, ds.y) == pytest.approx(1.0)


def test_diff_in_means_identical_arms():
    ds = Dataset(z=[1, 1, 0, 0], w=[0, 0, 0, 0], y=[2.0, 4.0, 2.0, 4.0],
                 x=np.zeros((4, 0)))
    assert diff_in_means(ds, ds.z, ds.y) == 0.0


def test_diff_in_means_random_oracle(rng):
    ds = random_dataset(rng, n=20, k=1)
    direct = ds.y[ds.z == 1].sum() / (ds.z == 1).sum() - \
        ds.y[ds.z == 0].sum() / (ds.z == 0).sum()
    assert diff_in_means(ds, ds.z, ds.y) == pytest.approx(direct, rel=1e-12)


def test_diff_in_means_empty_arm():
    ds = Dataset(z=[1, 1, 1, 1], w=[0, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=np.zeros((4, 0)))
    with pytest.raises(ValueError):
        diff_in_means(ds, ds.z, ds.y)


# --------------------------------------------------------------- OLS tests

def test_no_covariates_reduces_to_diff_in_means(rng):
    ds = random_dataset(rng, n=12, k=0)
    fit = fit_interacted(ds, ds.z, ds.y)
    assert fit.tau_hat == pytest.approx(diff_in_means(ds, ds.z, ds.y), rel=1e-12)


def test_coefficients_match_normal_equations(rng):
    ds = random_dataset(rng, n=20, k=2)
    fit = fit_interacted(ds, ds.z, ds.y)
    omega = build_design(ds)
    coef, resid, hat, gram_inv = normal_equations_fit(omega, ds.y)
    assert np.allclose(fit.coef, coef, atol=1e-10)
    assert np.allclose(fit.residuals, resid, atol=1e-10)
    assert np.allclose(fit.hat_diag, hat, atol=1e-10)
    assert np.allclose(fit.gram_inv, gram_inv, atol=1e-10)


def test_arm_wise_regression_identity(rng):
    # the assignment coefficient equals the difference in means corrected by
    # the per-arm regression fits evaluated at the arm covariate means
    ds = random_dataset(rng, n=30, k=2)
    fit = fit_interacted(ds, ds.z, ds.y)

    def arm_beta(mask):
        x, y = ds.x[mask], ds.y[mask]
        design = np.column_stack([np.ones(mask.sum()), x])
        return np.linalg.lstsq(design, y, rcond=None)[0][1:]

    b1 = arm_beta(ds.z == 1)
    b0 = arm_beta(ds.z == 0)
    xbar1 = ds.x[ds.z == 1].mean(axis=0)
    xbar0 = ds.x[ds.z == 0].mean(axis=0)
    decomposed = diff_in_means(ds, ds.z, ds.y) - b1 @ xbar1 + b0 @ xbar0
    assert fit.tau_hat == pytest.approx(decomposed, abs=1e-8)


def test_residual_orthogonality_and_hat_sum(rng):
    ds = random_dataset(rng, n=40, k=3)
    fit = fit_interacted(ds, ds.z, ds.y)
    scale = np.abs(fit.design.T @ ds.y).max()
    assert np.abs(fit.design.T @ fit.residuals).max() <= 1e-8 * max(scale, 1.0)
    assert fit.hat_diag.sum() == pytest.approx(2 * (ds.k + 1), abs=1e-8)
    assert np.all(fit.hat_diag >= -1e-12)
    assert np.all(fit.hat_diag <= 1.0 + 1e-12)


def test_rank_deficiency_detected(rng):
    ds = random_dataset(rng, n=20, k=2)
    x = ds.x.copy()
    x[:, 1] = 2.0 * x[:, 0]
    bad = Dataset(z=ds.z, w=ds.w, y=ds.y, x=x)
    with pytest.raises(RankDeficientDesignError, match="column"):
        fit_interacted(bad, bad.z, bad.y)


def test_too_few_rows_rejected(rng):
    ds = random_dataset(rng, n=6, k=2)
    with pytest.raises(RankDeficientDesignError):
        fit_interacted(ds, ds.z, ds.y)


# ---------------------------------------------------------- sandwich tests

def test_all_zero_residuals_give_zero_sandwich(rng):
    ds = random_dataset(rng, n=16, k=1)
    omega_y = build_design(ds) @ np.array([1.0, 2.0, 0.5, -0.5])
    exact = Dataset(z=ds.z, w=ds.w, y=omega_y, x=ds.x)
    fit_y = fit_interacted(exact, exact.z, exact.y)
    cov = sandwich_cov(fit_y, fit_y, "ehw")
    assert cov.v_y == pytest.approx(0.0, abs=1e-18)
    assert cov.c_yw == pytest.approx(0.0, abs=1e-18)


def test_hc2_dominates_ehw(rng):
    ds = random_dataset(rng, n=24, k=2)
    fy, fw = fit_interacted_pair(ds, ds.z)
    ehw = sandwich_cov(fy, fw, "ehw")
    hc2 = sandwich_cov(fy, fw, "hc2")
    hc3 = sandwich_cov(fy, fw, "hc3")
    assert hc2.v_w >= ehw.v_w
    assert hc3.v_w >= hc2.v_w
    assert hc2.v_y >= ehw.v_y
    assert hc3.v_y >= hc2.v_y


def test_sandwich_matches_dense_oracle(rng):
    ds = random_dataset(rng, n=18, k=2)
    fy, fw = fit_interacted_pair(ds, ds.z)
    omega = build_design(ds)
    _, uy, hat, _ = normal_equations_fit(omega, ds.y)
    _, uw, _, _ = normal_equations_fit(omega, ds.w.astype(float))
    for flavor, expo in (("ehw", 0), ("hc2", 1), ("hc3", 2)):
        weights = (1.0 - hat) ** (-expo)
        cov = sandwich_cov(fy, fw, flavor)
        assert cov.v_y == pytest.approx(dense_sandwich(omega, uy, uy, weights), rel=1e-8)
        assert cov.v_w == pytest.approx(dense_sandwich(omega, uw, uw, weights), rel=1e-8)
        assert cov.c_yw == pytest.approx(dense_sandwich(omega, uy, uw, weights),
                                         rel=1e-8, abs=1e-15)


def test_sandwich_linearity_in_combined_outcome(rng):
    # the sandwich of y - t*w residuals is exactly the quadratic
    # v_y - 2t*c + t^2*v_w for any t
    ds = random_dataset(rng, n=22, k=2)
    fy, fw = fit_interacted_pair(ds, ds.z)
    for flavor in ("ehw", "hc2", "hc3"):
        cov = sandwich_cov(fy, fw, flavor)
        for t in (-2.0, 0.0, 0.7, 3.14):
            ds_a = Dataset(z=ds.z, w=ds.w, y=ds.y - t * ds.w, x=ds.x)
            fa, _ = fit_interacted_pair(ds_a, ds_a.z)
            cov_a = sandwich_cov(fa, fa, flavor)
            expected = cov.v_y - 2 * t * cov.c_yw + t * t * cov.v_w
            assert cov_a.v_y == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_sandwich_psd(rng):
    for _ in range(10):
        ds = random_dataset(rng, n=20, k=1)
        fy, fw = fit_interacted_pair(ds, ds.z)
        cov = sandwich_cov(fy, fw, "hc2")
        assert cov.v_y >= 0 and cov.v_w >= 0
        det = cov.v_y * cov.v_w - cov.c_yw ** 2
        assert det >= -1e-12 * max(cov.v_y * cov.v_w, 1e-300)


def test_leverage_one_point_rejected():
    # one treated unit with a unique covariate value gets leverage 1
    z = np.array([1, 1, 1, 0, 0, 0, 1, 0])
    x = np.array([[0.0], [0.0], [0.0], [0.1], [-0.1], [0.0], [5.0], [-5.0]])
    x = x - x.mean(axis=0)
    ds = Dataset(z=z, w=np.zeros(8, dtype=int), y=np.arange(8.0), x=x)
    fy, fw = fit_interacted_pair(ds, ds.z)
    if np.any(fy.hat_diag >= 1 - 1e-12):
        with pytest.raises(LeverageOnePointError):
            sandwich_cov(fy, fw, "hc2")
    else:
        sandwich_cov(fy, fw, "hc2")  # construction did not reach leverage one


def test_sandwich_requires_shared_design(rng):
    ds = random_dataset(rng, n=16, k=1)
    other = random_dataset(rng, n=16, k=1)
    fy = fit_interacted(ds, ds.z, ds.y)
    fw = fit_interacted(other, other.z, other.w.astype(float))
    with pytest.raises(ValueError, match="share"):
        sandwich_cov(fy, fw)


def _rows_with_n1(rng, reps, n, n1):
    zs = np.zeros((reps, n), dtype=np.int64)
    for row in zs:
        row[rng.permutation(n)[:n1]] = 1
    return zs


def _assert_arm_indices_are_reference(zs, n1):
    for got, ref in zip(_arm_indices(zs, n1), reference_arm_indices(zs, n1)):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n,n1", [(20, 1), (20, 10), (20, 19), (21, 7), (30, 22)])
def test_arm_indices_match_the_stable_sort(rng, n, n1):
    _assert_arm_indices_are_reference(_rows_with_n1(rng, 25, n, n1), n1)


def test_arm_indices_of_no_rows():
    _assert_arm_indices_are_reference(np.zeros((0, 12), dtype=np.int64), 5)


@pytest.mark.parametrize("design", [DesignSpec.cre(17), DesignSpec.rem(17, p_a=0.2, k=3)])
def test_arm_indices_of_drawn_assignments(rng, design):
    cov = Covariates(rng.standard_normal((40, 3)))
    zs = np.array([draw_assignment(design, cov, rng).z for _ in range(20)])
    _assert_arm_indices_are_reference(zs, 17)
