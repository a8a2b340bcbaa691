"""Acceptance suite: desk-scale reproduction at 2,000 replications.

Each criterion prints one PASS/FAIL line (run with -s to stream them).
The simulation seed is fixed a priori and documented; tolerances follow
the stated budgets. Criteria whose targets conflict with the stated
data-generating process fail honestly; see the analysis notes shipped
outside the package.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from latekit.confidence_sets import far_set, solve_quadratic_set, wald_ci
from latekit.data_model import AnalysisConfig, DesignSpec
from latekit.design import draw_assignment
from latekit.estimation import Estimates, r2_star, variance_components
from latekit.mixture import (
    MixtureParams,
    MixtureQuantileTable,
    lambda_quantile,
    threshold_from_pa,
)
from latekit.simulation import DgpConfig, StudyConfig, generate_population, run_study
from latekit.stats_core import fit_interacted, fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import two_stage_set
from oracles import fieller_endpoints

ACCEPTANCE_SEED = 20240901
REPS = 2000
TAU_W_GRID = (0.05, 0.10, 0.15, 0.2, 0.3, 0.5)


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def cre_study():
    cfg = StudyConfig(n=200, tau_w=(0.005,) + TAU_W_GRID, design="cre",
                      reps=REPS, seed=ACCEPTANCE_SEED)
    start = time.time()
    table = run_study(cfg)
    return table, time.time() - start


@pytest.fixture(scope="module")
def rem_study():
    cfg = StudyConfig(n=200, tau_w=TAU_W_GRID, design="rem", p_a=0.01,
                      reps=REPS, seed=ACCEPTANCE_SEED)
    return run_study(cfg)


def test_criterion_1_cre_median_lengths(cre_study):
    table, elapsed = cre_study
    wald = table.row("wald", 0.5).median_length
    far = table.row("far", 0.5).median_length
    ok_wald = abs(wald - 5.10) <= 0.10 * 5.10
    ok_far = abs(far - 5.21) <= 0.10 * 5.21
    ok_time = elapsed < 120.0
    ok = ok_wald and ok_far and ok_time
    report(1, ok, f"CRE tau_w=0.5: wald {wald:.2f} (target 5.10 +-10%), "
                  f"far {far:.2f} (target 5.21 +-10%), runtime {elapsed:.0f}s (<120s)")
    assert ok_time
    assert ok_wald and ok_far


def test_criterion_2_rem_median_lengths(rem_study):
    wald = rem_study.row("wald", 0.3).median_length
    far = rem_study.row("far", 0.3).median_length
    ok_wald = abs(wald - 6.51) <= 0.12 * 6.51
    ok_far = abs(far - 10.07) <= 0.12 * 10.07
    ok = ok_wald and ok_far
    report(2, ok, f"ReM tau_w=0.3: wald {wald:.2f} (target 6.51 +-12%), "
                  f"far {far:.2f} (target 10.07 +-12%)")
    assert ok


def test_criterion_3_strong_proportions(cre_study):
    table, _ = cre_study
    targets = {0.05: 0.16, 0.10: 0.40, 0.2: 0.93}
    measured = {tw: table.row("ts_gamma_0.075", tw).strong_prop for tw in targets}
    ok = all(abs(measured[tw] - t) <= 0.05 for tw, t in targets.items())
    report(3, ok, "strong proportions (gamma=0.075, CRE) " +
           ", ".join(f"tau_w={tw}: {measured[tw]:.3f} (target {t} +-0.05)"
                     for tw, t in targets.items()))
    assert ok


def test_criterion_4_coverage_conservativeness(cre_study, rem_study):
    table_cre, _ = cre_study
    far_cov = {("cre", tw): table_cre.row("far", tw).coverage for tw in TAU_W_GRID}
    far_cov.update({("rem", tw): rem_study.row("far", tw).coverage for tw in TAU_W_GRID})
    ts_cov = {("cre", tw): table_cre.row("ts_gamma_0.075", tw).coverage
              for tw in TAU_W_GRID if tw >= 0.15}
    ts_cov.update({("rem", tw): rem_study.row("ts_gamma_0.075", tw).coverage
                   for tw in TAU_W_GRID if tw >= 0.15})
    ok_far = all(v >= 0.93 for v in far_cov.values())
    ok_ts = all(v >= 0.90 for v in ts_cov.values())
    ok = ok_far and ok_ts
    report(4, ok, f"FAR coverage min {min(far_cov.values()):.3f} (>=0.93); "
                  f"TS(0.075) coverage min at tau_w>=0.15 {min(ts_cov.values()):.3f} (>=0.90)")
    assert ok


def test_criterion_5_weak_instrument_failure(cre_study):
    table, _ = cre_study
    cov = table.row("wald", 0.005).coverage
    # diagnostic: the qualitative failure pattern (Wald is the procedure
    # whose coverage is worst at the weakest instrument)
    far_cov = table.row("far", 0.005).coverage
    ok = cov < 0.85
    report(5, ok, f"Wald coverage at tau_w=0.005: {cov:.3f} (need <0.85); "
                  f"FAR coverage there {far_cov:.3f}")
    assert ok


def test_criterion_6_lambda_quantile():
    a = threshold_from_pa(0.01, 5)
    params = MixtureParams(k=5, a=a, alpha=0.025)
    lam0 = lambda_quantile(params, 0.0)
    lam1 = lambda_quantile(params, 1.0)
    from latekit.mixture import quantile_table

    table = quantile_table(params)
    monotone = bool(np.all(np.diff(table.lambda_values) <= 1e-12))
    t_a = MixtureQuantileTable.build(params, seed=1001)
    t_b = MixtureQuantileTable.build(params, seed=2002)
    two_seed = float(np.max(np.abs(t_a.lambda_values - t_b.lambda_values)))
    ok = (abs(lam0 - 1.9600) <= 0.01 and monotone
          and 0.0 < lam1 <= math.sqrt(a) and two_seed < 0.01)
    report(6, ok, f"lambda(0)={lam0:.4f} (1.9600 +-0.01), monotone={monotone}, "
                  f"lambda(1)={lam1:.4f} (<= sqrt(a)={math.sqrt(a):.4f}), "
                  f"two-seed max diff {two_seed:.4f} (<0.01)")
    assert ok


def test_criterion_7_oracle_equivalence(rng):
    from oracles import random_dataset
    from test_estimation import grid_minimum_r2
    from test_stats_core import (
        build_design,
        dense_sandwich,
        normal_equations_fit,
        pairwise_covariance,
        pairwise_variance,
    )

    failures = []

    # moments, OLS, sandwich against dense oracles at 1e-8
    for trial in range(10):
        ds = random_dataset(rng, n=int(rng.integers(16, 30)), k=int(rng.integers(1, 4)))
        s = summarize(ds, ds.z)
        for zval, arm in zip((1, 0), s.covariate_arms):
            mask = ds.z == zval
            if abs(arm.s2_y[0] - pairwise_variance(ds.y[mask])) > 1e-8 * max(arm.s2_y[0], 1):
                failures.append("moments")
            col = int(rng.integers(0, ds.k))
            oracle_cov = pairwise_covariance(ds.y[mask], ds.x[mask][:, col])
            if abs(arm.s_yx[0, col] - oracle_cov) > 1e-8 * max(abs(oracle_cov), 1):
                failures.append("moment covariance")
        fit = fit_interacted(ds, ds.z, ds.y)
        omega = build_design(ds)
        coef, resid, hat, _ = normal_equations_fit(omega, ds.y)
        if np.abs(fit.coef - coef).max() > 1e-8:
            failures.append("ols coefficients")
        if abs(fit.hat_diag.sum() - 2 * (ds.k + 1)) > 1e-8:
            failures.append("hat sum")
        fy, fw = fit_interacted_pair(ds, ds.z)
        for flavor, expo in (("ehw", 0), ("hc2", 1), ("hc3", 2)):
            cov = sandwich_cov(fy, fw, flavor)
            weights = (1.0 - hat) ** (-expo)
            _, uw, _, _ = normal_equations_fit(omega, ds.w.astype(float))
            target = dense_sandwich(omega, resid, uw, weights)
            if abs(cov.c_yw - target) > 1e-8 * max(abs(target), 1e-6):
                failures.append(f"sandwich {flavor}")
        # A-linearity at 1e-10 and Lin decomposition at 1e-8
        t = float(rng.normal())
        from latekit.data_model import Dataset

        ds_a = Dataset(z=ds.z, w=ds.w, y=ds.y - t * ds.w, x=ds.x)
        fa, _ = fit_interacted_pair(ds_a, ds_a.z)
        cov = sandwich_cov(fy, fw, "hc2")
        cov_a = sandwich_cov(fa, fa, "hc2")
        expected = cov.v_y - 2 * t * cov.c_yw + t * t * cov.v_w
        if abs(cov_a.v_y - expected) > 1e-10 * max(abs(expected), 1e-8):
            failures.append("A-linearity")

        def arm_beta(mask):
            xz, yz = ds.x[mask], ds.y[mask]
            dsn = np.column_stack([np.ones(mask.sum()), xz])
            return np.linalg.lstsq(dsn, yz, rcond=None)[0][1:]

        lin = (ds.y[ds.z == 1].mean() - ds.y[ds.z == 0].mean()
               - arm_beta(ds.z == 1) @ ds.x[ds.z == 1].mean(axis=0)
               + arm_beta(ds.z == 0) @ ds.x[ds.z == 0].mean(axis=0))
        if abs(fit.tau_hat - lin) > 1e-8 * max(abs(lin), 1):
            failures.append("Lin decomposition")

    # FAR interval endpoints against a 1e7-point membership grid at 1e-4
    for b_y, b_w, q_y, q_c, q_w in ((2.0, 1.0, 0.04, 0.0, 0.01),
                                    (-1.0, 0.8, 0.09, 0.01, 0.02),
                                    (0.5, 1.2, 0.2, -0.05, 0.03)):
        cs = solve_quadratic_set(b_y, b_w, 1.96, q_y, q_c, q_w)
        taus = np.linspace(cs.lo - 0.3, cs.hi + 0.3, 10_000_001)
        member = (b_y - taus * b_w) ** 2 <= 1.96 ** 2 * (q_y - 2 * taus * q_c
                                                         + taus ** 2 * q_w)
        idx = np.nonzero(member)[0]
        if abs(taus[idx[0]] - cs.lo) > 1e-4 or abs(taus[idx[-1]] - cs.hi) > 1e-4:
            failures.append("FAR grid endpoints")
        lo, hi = fieller_endpoints(b_y, b_w, 1.96, q_y, q_c, q_w)
        if abs(lo - cs.lo) > 1e-9 * max(abs(cs.lo), 1) or \
           abs(hi - cs.hi) > 1e-9 * max(abs(cs.hi), 1):
            failures.append("Fieller equivalence")

    # r2_star against the tan-compactified grid at 1e-4, 200 component sets
    for trial in range(200):
        ds = random_dataset(rng, n=int(rng.integers(14, 40)), k=int(rng.integers(1, 4)))
        comp = variance_components(summarize(ds, ds.z))
        star = r2_star(comp).value
        oracle = grid_minimum_r2(comp, points=1_000_001)
        if abs(star - oracle) > 1e-4:
            failures.append(f"r2_star trial {trial}: {star} vs {oracle}")

    ok = not failures
    report(7, ok, "oracle equivalence suites"
           + ("" if ok else f" failures: {sorted(set(failures))}"))
    assert ok


def test_criterion_8_structural_theorems():
    n, k, draws = 80, 3, 10_000
    p_a = 0.2
    a = threshold_from_pa(p_a, k)
    pop = None
    for attempt in range(100):
        try:
            pop = generate_population(
                DgpConfig(n=n, tau_w_target=0.25, k=k),
                np.random.default_rng((515, attempt)))
            break
        except Exception:
            continue
    cre_design = DesignSpec.cre(n // 2)
    rem_design = DesignSpec(kind="rem", n1=n // 2, a=a, p_a=p_a)
    cfg_cre = AnalysisConfig(design=cre_design)
    cfg_rem = AnalysisConfig(design=rem_design)
    rng = np.random.default_rng(626)
    grid = np.linspace(-200.0, 200.0, 10_001)
    z_crit = norm.ppf(0.975)

    wald_in_far = branch_equal = wald_shorter = inclusion = True
    for i in range(draws):
        z = draw_assignment(cre_design, pop.x, rng).z
        ds = pop.reveal(z)
        s = summarize(ds, z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        far_cre = far_set("cre", est, comp, cfg_cre)
        far_rem = far_set("rem", est, comp, cfg_rem)
        wald_cre = wald_ci("cre", est, comp, cfg_cre)
        if est.tau_w != 0.0:
            point = est.tau_y / est.tau_w
            if not (far_cre.contains(point) and far_rem.contains(point)):
                wald_in_far = False
        if far_cre.kind == "interval" and \
                wald_cre.length > far_cre.length + 1e-9 * max(far_cre.length, 1):
            wald_shorter = False
        # two-stage output must equal the branch's standalone set
        out = two_stage_set("cre", ds, z, cfg_cre)
        standalone = wald_cre if out.branch == "wald" else far_cre
        if out.set != standalone:
            branch_equal = False
        # rerandomization set contained in the complete-randomization set:
        # membership implication over the compactified grid
        rho_star = r2_star(comp).value
        lam = lambda_quantile(MixtureParams(k=k, a=a, alpha=0.025), rho_star)
        in_rem = (est.tau_y - grid * est.tau_w) ** 2 <= lam ** 2 * (
            comp.rem[0] - 2 * grid * comp.rem[1] + grid ** 2 * comp.rem[2])
        in_cre = (est.tau_y - grid * est.tau_w) ** 2 <= z_crit ** 2 * (
            comp.plain[0] - 2 * grid * comp.plain[1] + grid ** 2 * comp.plain[2])
        if np.any(in_rem & ~in_cre):
            inclusion = False
    # also exercise the rem-regime two-stage branch identity on a subsample
    rng2 = np.random.default_rng(727)
    for i in range(200):
        z = draw_assignment(rem_design, pop.x, rng2).z
        ds = pop.reveal(z)
        out = two_stage_set("rem", ds, z, cfg_rem)
        s = summarize(ds, z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        standalone = (wald_ci if out.branch == "wald" else far_set)(
            "rem", est, comp, cfg_rem)
        if out.set != standalone:
            branch_equal = False
    ok = wald_in_far and branch_equal and wald_shorter and inclusion
    report(8, ok, f"structural assertions over {draws} draws: "
                  f"wald-in-far={wald_in_far}, branch-identity={branch_equal}, "
                  f"wald-shorter={wald_shorter}, rem-subset-cre={inclusion}")
    assert ok


def test_criterion_9_rem_acceptance_rate():
    n, k = 1000, 5
    rng = np.random.default_rng(909)
    x = rng.standard_normal((n, k))
    x -= x.mean(axis=0)
    spec = DesignSpec.rem(n1=n // 2, p_a=0.01, k=k)
    accepted = 400
    attempts = sum(draw_assignment(spec, x, rng).accepted_after
                   for _ in range(accepted))
    rate = accepted / attempts
    ok = abs(rate - 0.01) <= 0.004
    report(9, ok, f"ReM acceptance rate at n=1000: {rate:.4f} "
                  f"(target 0.01 +-0.004, {accepted} accepted draws)")
    assert ok
