import math

import numpy as np
import pytest

from latekit import simulation
from latekit.confidence_sets import ConfidenceSet
from latekit.data_model import PotentialDataset, true_sample_late
from latekit.exceptions import InfeasibleTargetError
from latekit.simulation import (
    DgpConfig,
    StudyConfig,
    generate_population,
    median_extended,
    population_oracle,
    run_study,
)


def test_population_basic_invariants(rng):
    cfg = DgpConfig(n=200, tau_w_target=0.3)
    pop = generate_population(cfg, rng)
    assert np.all(pop.w1 >= pop.w0)
    assert pop.n_compliers == round(200 * 0.3)
    assert pop.n_compliers / pop.n == pytest.approx(0.3)
    assert np.allclose(pop.x.mean(axis=0), 0.0, atol=1e-12)


def test_population_single_complier(rng):
    cfg = DgpConfig(n=200, tau_w_target=0.005)
    pop = generate_population(cfg, rng)
    assert pop.n_compliers == 1


def test_population_outcome_variance_calibration(rng):
    # regressing the control-state outcome on the covariates should explain
    # about half the variance at large n
    cfg = DgpConfig(n=10_000, tau_w_target=0.2)
    n, k = cfg.n, cfg.k
    x = rng.standard_normal((n, k))
    y_w0 = x.sum(axis=1) + rng.normal(0.0, math.sqrt(cfg.var_eps0), n)
    design = np.column_stack([np.ones(n), x])
    resid = y_w0 - design @ np.linalg.lstsq(design, y_w0, rcond=None)[0]
    r2 = 1 - resid.var() / y_w0.var()
    assert r2 == pytest.approx(0.5, abs=0.03)


def test_population_infeasible_target():
    # an absurdly lucky latent draw is needed for 50% compliers at tiny n
    # with a strongly shifted latent index; force failure via a rigged rng
    class AllPositive:
        def standard_normal(self, shape):
            return np.abs(np.random.default_rng(0).standard_normal(shape))

        def normal(self, loc, scale, n):
            return np.full(n, 10.0)  # latent index always positive

    cfg = DgpConfig(n=20, tau_w_target=0.5)
    with pytest.raises(InfeasibleTargetError):
        generate_population(cfg, AllPositive())


def test_oracle_constant_effect_no_covariates():
    n = 12
    y0 = np.arange(n, dtype=float)
    p = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                         y0=y0, y1=y0 + 2.0, x=np.zeros((n, 0)))
    orc = population_oracle(p, n1=6)
    # constant effect: the adjusted contrasts are equal across arms, so the
    # difference term vanishes and the variance is the two-arm sum
    s2 = np.var(y0 - 2.0 * 0, ddof=1)
    a1 = p.y1 - orc.tau * p.w1
    a0 = p.y0 - orc.tau * p.w0
    assert np.var(a1 - a0, ddof=1) == pytest.approx(0.0, abs=1e-12)
    assert orc.v_a == pytest.approx(np.var(a1, ddof=1) / 6 + np.var(a0, ddof=1) / 6,
                                    rel=1e-12)


def test_oracle_perfectly_linear_effect(rng):
    n = 40
    x = rng.standard_normal((n, 2))
    x -= x.mean(axis=0)
    beta = np.array([2.0, -1.0])
    y0 = x @ beta
    y1 = 3.0 + x @ beta
    p = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                         y0=y0, y1=y1, x=x)
    orc = population_oracle(p, n1=20)
    assert orc.r2_a == pytest.approx(1.0, abs=1e-10)


def test_oracle_matches_definitional_double_loop(rng):
    cfg = DgpConfig(n=60, tau_w_target=0.3, k=2)
    pop = generate_population(cfg, rng)
    n1 = 30
    orc = population_oracle(pop, n1)
    n = pop.n
    tau = true_sample_late(pop)
    a1 = pop.y1 - tau * pop.w1
    a0 = pop.y0 - tau * pop.w0

    def fp_var(q):
        qbar = sum(q) / n
        return sum((qi - qbar) ** 2 for qi in q) / (n - 1)

    def fp_cov_with_x(q):
        qbar = sum(q) / n
        xbar = pop.x.mean(axis=0)
        total = np.zeros(pop.x.shape[1])
        for i in range(n):
            total += (pop.x[i] - xbar) * (q[i] - qbar)
        return total / (n - 1)

    v_a = fp_var(a1) / n1 + fp_var(a0) / (n - n1) - fp_var(a1 - a0) / n
    assert orc.v_a == pytest.approx(v_a, rel=1e-10)
    xc = pop.x - pop.x.mean(axis=0)
    sxx_inv = np.linalg.inv(xc.T @ xc / (n - 1))

    def proj(q):
        s = fp_cov_with_x(q)
        return float(s @ sxx_inv @ s)

    v_ax = proj(a1) / n1 + proj(a0) / (n - n1) - proj(a1 - a0) / n
    assert orc.r2_a == pytest.approx(min(max(v_ax / v_a, 0.0), 1.0), rel=1e-10)


def test_median_extended_boundary():
    assert median_extended(np.array([1.0, 2.0, math.inf, math.inf])) == 2.0
    assert math.isinf(median_extended(np.array([1.0, math.inf, math.inf, math.inf])))
    assert median_extended(np.array([3.0])) == 3.0
    assert math.isnan(median_extended(np.array([])))


def test_run_study_smoke_and_determinism():
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=3, seed=99, k=2)
    t1 = run_study(cfg)
    t2 = run_study(cfg)
    assert t1.to_csv() == t2.to_csv()
    assert len(t1.rows) == len(cfg.methods())
    csv_text = t1.to_csv()
    assert csv_text.splitlines()[0] == t1.CSV_HEADER
    row = t1.row("wald", 0.4)
    assert 0.0 <= row.coverage <= 1.0
    assert row.n_included == 3


def test_run_study_two_stage_length_between_wald_and_far():
    cfg = StudyConfig(n=80, tau_w=(0.4,), design="cre", reps=40, seed=5, k=2)
    table = run_study(cfg)
    wald_m = table.row("wald", 0.4).median_length
    far_m = table.row("far", 0.4).median_length
    ts_m = table.row("ts_gamma_0.075", 0.4).median_length
    assert wald_m <= ts_m <= far_m or math.isinf(far_m)


def test_run_study_parallel_matches_serial():
    cfg = StudyConfig(n=60, tau_w=(0.3, 0.5), design="cre", reps=5, seed=7, k=2)
    serial = run_study(cfg)
    parallel = run_study(
        StudyConfig(**{**cfg.__dict__, "threads": 2}))
    assert serial.to_csv() == parallel.to_csv()


def test_wald_longer_than_far_interval_is_an_error(monkeypatch):
    # the efficiency ordering is checked explicitly, so it holds under -O too
    monkeypatch.setattr(simulation, "far_set",
                        lambda *args: ConfidenceSet.interval(0.0, 1.0))
    monkeypatch.setattr(simulation, "wald_ci",
                        lambda *args: ConfidenceSet.interval(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=1, seed=99, k=2)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        run_study(cfg)
