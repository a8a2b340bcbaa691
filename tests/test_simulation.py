import json
import math

import numpy as np
import pytest

from latekit import estimation, simulation
from latekit.confidence_sets import (
    KINDS,
    ConfidenceSet,
    SetArrays,
    solve_quadratic_set,
    solve_quadratic_sets,
)
from latekit.data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from latekit.design import Covariates, draw_assignment
from latekit.estimation import REGIMES, r2_star, variance_components
from latekit.exceptions import (
    DegenerateCovariatesError,
    InfeasibleTargetError,
    LeverageOnePointError,
    NoIdentificationError,
    RankDeficientDesignError,
)
from latekit.simulation import (
    DgpConfig,
    PerformanceTable,
    StudyConfig,
    generate_population,
    median_extended,
    population_oracle,
    run_study,
)
from latekit.stats_core import summarize
import oracles
from oracles import (
    reference_draws,
    reference_evaluate_draw,
    reference_score_draws,
    reference_table_json,
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


def test_oracle_rejects_singular_covariates(rng):
    n = 20
    x1 = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    p = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                         y0=y0, y1=y0 + 1.0, x=np.column_stack([x1, 2.0 * x1]))
    with pytest.raises(DegenerateCovariatesError,
                       match="^covariate covariance is numerically singular$"):
        population_oracle(p, n1=10)


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


def _every_cre_assignment(pop):
    """The effect estimates and plain family of every one of the C(n, n/2)
    assignments of ``pop``, by the study scorer's moment families."""
    zs, _ = oracles.every_assignment(pop.n, pop.n // 2)
    base = AnalysisConfig(design=DesignSpec.cre(pop.n // 2))
    tau_y, tau_w, families, _ = simulation._FAMILIES["cre"](pop, zs, base)
    return tau_y, tau_w, families["plain"]


def test_neyman_variance_is_exact_over_every_assignment(rng):
    # Neyman's finite-population variance is exact, not asymptotic: over all
    # C(12, 6) assignments the contrast tau_y - tau * tau_w has mean zero
    # and variance v_a
    pop = generate_population(DgpConfig(n=12, tau_w_target=0.25, k=2), rng)
    orc = population_oracle(pop, 6)
    tau_y, tau_w, _ = _every_cre_assignment(pop)
    contrast = tau_y - orc.tau * tau_w
    assert len(contrast) == 924
    assert abs(contrast.mean()) <= 1e-12 * math.sqrt(orc.v_a)
    assert np.var(contrast) == pytest.approx(orc.v_a, rel=1e-12)


def test_plain_family_is_unbiased_without_unit_level_effect_variation(rng):
    # with y1 - y0 = tau (w1 - w0), y - tau w has the same value under both
    # arms, S_d^2 is zero and the plain family's quadratic at tau is exactly
    # unbiased for v_a over all C(12, 6) assignments
    p = generate_population(DgpConfig(n=12, tau_w_target=0.25, k=2), rng)
    pop = PotentialDataset(w0=p.w0, w1=p.w1, y0=p.y0, y1=p.y0 + 1.5 * (p.w1 - p.w0), x=p.x)
    orc = population_oracle(pop, 6)
    assert orc.tau == pytest.approx(1.5)
    _, _, (v_y, c_yw, v_w) = _every_cre_assignment(pop)
    quad = v_y - 2.0 * orc.tau * c_yw + orc.tau ** 2 * v_w
    assert quad.mean() == pytest.approx(orc.v_a, rel=1e-12)


@pytest.mark.parametrize("design,adjustment", [("cre", "none"), ("rem", "none"),
                                               ("cre", "hc2")])
@pytest.mark.parametrize("seed", [20240901, 777])
def test_study_agrees_with_the_cells_exact_law(design, adjustment, seed):
    # the only randomness is the assignment, so a cell's law is a finite sum
    # over its assignments (exact_cell); each method's coverage and
    # strong_prop at 2,000 reps lie within 4.5 binomial standard errors of it
    cfg = StudyConfig(n=16, k=2, tau_w=(0.25,), design=design, p_a=0.1,
                      adjustment=adjustment, reps=2000, seed=seed)
    exact = oracles.exact_cell(cfg, 0, 0.25)
    assert 0 < exact[0].n_included <= 12870
    rows = run_study(cfg).rows
    assert [r.method for r in rows] == [r.method for r in exact]
    for want, got in zip(exact, rows):
        for field, draws in (("coverage", got.n_included), ("strong_prop", got.reps)):
            p = getattr(want, field)
            if p is None or not draws:
                continue  # no first stage, or no included draw
            se = math.sqrt(p * (1.0 - p) / draws)
            assert abs(getattr(got, field) - p) <= 4.5 * se, (got.method, field)


def test_median_extended_boundary():
    assert median_extended(np.array([1.0, 2.0, math.inf, math.inf])) == 2.0
    assert math.isinf(median_extended(np.array([1.0, math.inf, math.inf, math.inf])))
    assert median_extended(np.array([3.0])) == 3.0
    assert math.isnan(median_extended(np.array([])))


def test_median_extended_is_the_inverted_cdf_median(rng):
    for m in range(1, 60):
        v = rng.standard_normal(m)
        v[rng.random(m) < 0.3] = math.inf
        v[rng.random(m) < 0.1] = -math.inf
        assert median_extended(v) == np.quantile(v, 0.5, method="inverted_cdf")
    with pytest.raises(ValueError, match="nan"):
        median_extended(np.array([1.0, math.nan, 2.0]))


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


def test_table_json_reports_mean_rejection_draws():
    cfg = StudyConfig(n=60, tau_w=(0.3, 0.5), design="rem", p_a=0.05, reps=6, seed=3, k=2)
    table = run_study(cfg)
    spec = DesignSpec.rem(30, p_a=0.05, k=2)
    for cell, tau_w in enumerate(cfg.tau_w):
        pop = simulation._population_for_cell(cfg, cell, tau_w)
        attempts = [draw_assignment(spec, pop.x, np.random.default_rng((cfg.seed, cell, 1 + rep))
                                    ).accepted_after for rep in range(cfg.reps)]
        assert np.mean(attempts) > 1.0
        rows = [r for r in table.to_json_dict()["rows"] if r["tau_w"] == tau_w]
        assert [r["attempts_mean"] for r in rows] == [np.mean(attempts)] * len(cfg.methods())
    assert table.to_csv().splitlines()[0] == PerformanceTable.CSV_HEADER
    cre = run_study(StudyConfig(n=60, tau_w=(0.5,), reps=3, seed=3, k=2))
    assert {r.attempts_mean for r in cre.rows} == {1.0}


def test_wald_longer_than_far_interval_is_an_error(monkeypatch):
    # the efficiency ordering is checked explicitly, so it holds under -O too
    monkeypatch.setattr(oracles, "far_set",
                        lambda *args: ConfidenceSet.interval(0.0, 1.0))
    monkeypatch.setattr(oracles, "wald_ci",
                        lambda *args: ConfidenceSet.interval(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", adjustment="ehw", reps=1,
                      seed=99, k=2)
    pop, base, _, zs, _ = simulation._cell_draws(cfg, 0, 0.4)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        reference_score_draws(pop, zs, base, cfg.gamma)


def _interval_arrays(lo, hi, errors=None):
    """Stand-in for a batched set function: every draw gets [lo, hi]."""
    def sets(b_y, *args, **kwargs):
        return SetArrays(kind=np.zeros(len(b_y), dtype=np.int8), lo=np.full(len(b_y), lo),
                         hi=np.full(len(b_y), hi), degenerate=np.zeros(len(b_y), dtype=bool),
                         errors=dict(errors or {}))
    return sets


def test_wald_longer_than_far_interval_is_an_error_batched(monkeypatch):
    # the batched CRE pass checks the same ordering with the same message
    monkeypatch.setattr(simulation, "solve_quadratic_sets", _interval_arrays(0.0, 1.0))
    monkeypatch.setattr(simulation, "wald_intervals", _interval_arrays(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=1, seed=99, k=2)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        run_study(cfg)


@pytest.mark.parametrize("adjustment", ["ehw", "hc2", "hc3"])
def test_wald_longer_than_far_interval_is_an_error_batched_adjusted(monkeypatch, adjustment):
    # so does the batched regression-adjusted pass
    monkeypatch.setattr(simulation, "solve_quadratic_sets", _interval_arrays(0.0, 1.0))
    monkeypatch.setattr(simulation, "wald_intervals", _interval_arrays(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", adjustment=adjustment, reps=1,
                      seed=99, k=2)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        run_study(cfg)


def test_batched_adjusted_names_the_sandwich_family_when_its_variance_is_negative(
        monkeypatch):
    # a sandwich quadratic is nonnegative by construction; a covariance
    # moved past the bound makes it -(v_y + tau^2 v_w) at every ratio tau
    wald_intervals = simulation.wald_intervals

    def negative(b_y, b_w, crit, q_y, q_c, q_w, **kwargs):
        tau = b_y / b_w
        return wald_intervals(b_y, b_w, crit, q_y, (q_y + tau * tau * q_w) / tau, q_w,
                              **kwargs)

    monkeypatch.setattr(simulation, "wald_intervals", negative)
    cfg = StudyConfig(n=60, tau_w=(0.4,), adjustment="hc2", reps=3, seed=99, k=2)
    with pytest.raises(ArithmeticError, match=r"^sandwich variance quadratic is negative: -"):
        run_study(cfg)


def test_every_regime_has_a_batched_pass():
    # _run_cell looks the regime up without a scalar fallback
    assert set(simulation._FAMILIES) == set(REGIMES)


def test_batched_pass_raises_the_first_failing_draws_first_failure(monkeypatch):
    # as the scalar loop would: draw 1 fails in FAR before draw 2's Wald
    # interval or draw 3's ordering check, and draw 1's Wald check comes first
    far_errors = {1: NoIdentificationError("far at 1"), 2: NoIdentificationError("far at 2")}
    monkeypatch.setattr(simulation, "solve_quadratic_sets",
                        _interval_arrays(0.0, 1.0, far_errors))
    monkeypatch.setattr(simulation, "wald_intervals",
                        _interval_arrays(0.25, 0.75, {2: ArithmeticError("wald at 2")}))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=4, seed=99, k=2)
    with pytest.raises(NoIdentificationError, match="far at 1"):
        run_study(cfg)
    monkeypatch.setattr(simulation, "wald_intervals",
                        _interval_arrays(0.25, 0.75, {1: ArithmeticError("wald at 1")}))
    with pytest.raises(ArithmeticError, match="wald at 1"):
        run_study(cfg)


def _close(a, b):
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def _assert_batched_matches_scalar(pop, base, truth, zs, gammas, score=simulation._score,
                                   exact=True):
    """Compare a batched pass with reference_evaluate_draw draw by draw and
    method by method, with estimates equal (or, unless ``exact``, within 1e-9
    relative); return the number of draws with a zero first stage."""
    estimates, scores = score(pop, zs, base, gammas)
    assert list(scores) == simulation._method_names(gammas)
    zero_first_stage = 0
    for i, z in enumerate(zs):
        scalar = reference_evaluate_draw(pop.reveal(z), z, base, gammas)
        est = scalar["wald"].estimate
        assert ((math.isnan(est) and math.isnan(estimates[i])) or est == estimates[i]
                or not exact and _close(est, estimates[i]))
        zero_first_stage += math.isnan(est)
        for m, r in scalar.items():
            s = scores[m]
            assert KINDS[s.sets.kind[i]] == r.set.kind, (i, m)
            assert _close(s.sets.lo[i], r.set.lo) and _close(s.sets.hi[i], r.set.hi), (i, m)
            assert _close(s.sets.length[i], r.set.length), (i, m)
            assert s.sets.contains(truth)[i] == r.set.contains(truth), (i, m)
            assert s.sets.degenerate[i] == r.set.degenerate, (i, m)
            assert (s.strong is None) == (r.strong is None), (i, m)
            if r.strong is not None:
                assert s.strong[i] == r.strong, (i, m)
            assert s.included[i] == r.included, (i, m)
    return zero_first_stage


def _assert_rows_match(batched, scalar):
    """Rows with the same counts, shares and geometry, and every other
    number within 1e-9 relative."""
    assert len(batched.rows) == len(scalar.rows)
    for b, s in zip(batched.rows, scalar.rows):
        for f in ("method", "n_included", "coverage", "strong_prop", "set_kinds",
                  "degenerate", "attempts_mean"):
            assert (getattr(b, f) == getattr(s, f)
                    or math.isnan(getattr(b, f)) and math.isnan(getattr(s, f))), (b.method, f)
        for f in ("median_abs_error", "mean_abs_error", "median_length"):
            u, v = getattr(b, f), getattr(s, f)
            assert _close(u, v) or math.isnan(u) and math.isnan(v), (b.method, f)


def _check_batched_cell(design, n, k, tau_w, seed, reps, adjustment="none"):
    """Score one study cell by its batched pass and by the scalar loop, draw
    for draw and as rows; return the number of zero first stages. The
    unadjusted passes agree to the bit, the adjusted pass to 1e-9."""
    cfg = StudyConfig(n=n, tau_w=(tau_w,), design=design, adjustment=adjustment,
                      reps=max(reps, 1), seed=seed, k=k)
    pop, base, truth, zs, attempts = simulation._cell_draws(cfg, 0, tau_w)
    # a study has at least one rep; the passes are also checked on none
    zs, attempts = zs[:reps], attempts[:reps]
    assert zs.shape == (reps, n)
    exact = adjustment == "none"
    score = simulation._score
    zero_first_stage = _assert_batched_matches_scalar(pop, base, truth, zs, cfg.gamma, score,
                                                      exact)
    batched = PerformanceTable(simulation._rows(
        cfg, tau_w, truth, attempts, *score(pop, zs, base, cfg.gamma)))
    scalar = PerformanceTable(simulation._rows(
        cfg, tau_w, truth, attempts, *reference_score_draws(pop, zs, base, cfg.gamma)))
    if exact:
        assert batched.to_csv() == scalar.to_csv()
        assert batched.to_json_dict() == scalar.to_json_dict()
    else:
        _assert_rows_match(batched, scalar)
    if reps == 0:
        assert all(r.n_included == 0 and math.isnan(r.coverage) for r in batched.rows)
    return zero_first_stage


@pytest.mark.parametrize("n,k,tau_w", [(60, 2, 1 / 60), (60, 2, 0.5),
                                       (200, 5, 0.005), (200, 5, 0.5),
                                       (10, 5, 0.5)])  # each arm's covariance singular
@pytest.mark.parametrize("seed", [20240901, 777])
@pytest.mark.parametrize("reps", [0, 1, 40])
def test_batched_cre_matches_scalar_draw_for_draw(n, k, tau_w, seed, reps):
    zero_first_stage = _check_batched_cell("cre", n, k, tau_w, seed, reps)
    if tau_w == 0.005 and reps == 40:
        assert zero_first_stage > 0  # the undefined-ratio Wald branch is exercised


@pytest.mark.parametrize("n,k,tau_w", [(60, 2, 1 / 60), (60, 2, 0.5),
                                       (200, 5, 1 / 60), (200, 5, 0.5),
                                       (200, 5, 0.2)])  # first stages on both sides
@pytest.mark.parametrize("seed", [20240901, 777])
@pytest.mark.parametrize("reps", [0, 1, 40])
def test_batched_rem_matches_scalar_draw_for_draw(n, k, tau_w, seed, reps):
    _check_batched_cell("rem", n, k, tau_w, seed, reps)


@pytest.mark.parametrize("n,k,tau_w", [(60, 2, 1 / 60), (60, 2, 0.5),
                                       (200, 5, 0.005), (200, 5, 0.5)])
@pytest.mark.parametrize("adjustment", ["ehw", "hc2", "hc3"])
@pytest.mark.parametrize("seed", [20240901, 777])
@pytest.mark.parametrize("reps", [0, 1, 40])
def test_batched_adjusted_matches_scalar_draw_for_draw(n, k, tau_w, adjustment, seed, reps):
    _check_batched_cell("cre", n, k, tau_w, seed, reps, adjustment)


@pytest.mark.parametrize("adjustment", ["ehw", "hc2"])
def test_batched_adjusted_matches_scalar_under_rerandomization(adjustment):
    # an adjusted ReM cell is scored by the same pass, normal critical values
    _check_batched_cell("rem", 60, 2, 0.5, 777, 20, adjustment)


def test_batched_adjusted_raises_the_scalar_paths_error():
    # 10 units cannot carry the 12-column interacted design of 5 covariates
    cfg = StudyConfig(n=10, k=5, tau_w=(0.5,), adjustment="hc2", reps=3)
    pop, base, _, zs, _ = simulation._cell_draws(cfg, 0, 0.5)
    with pytest.raises(RankDeficientDesignError) as scalar:
        reference_score_draws(pop, zs, base, cfg.gamma)
    with pytest.raises(RankDeficientDesignError) as batched:
        simulation._score(pop, zs, base, cfg.gamma)
    assert str(batched.value) == str(scalar.value) == "need n > 12 rows for 12 columns; got 10"


def _one_unit_marked(rng, n=20):
    """A population whose second covariate marks units 0 and n/2, and three
    draws: the marked units in different arms (each has leverage one in its
    arm's fit), both treated (the interacted design is rank deficient), and
    again apart."""
    x = np.column_stack([rng.standard_normal(n), np.zeros(n)])
    x[[0, n // 2], 1] = 1.0
    y0 = rng.standard_normal(n)
    w1 = (rng.random(n) < 0.6).astype(int)
    w1[:2] = 1
    pop = PotentialDataset(w0=np.zeros(n, dtype=int), w1=w1, y0=y0, y1=y0 + w1, x=x)
    apart = np.repeat([1, 0], n // 2)
    together = apart.copy()
    together[[1, n // 2]] = 0, 1
    return pop, np.array([apart, together, np.roll(apart, 1)])


@pytest.mark.parametrize("adjustment", ["hc2", "hc3"])
def test_batched_adjusted_raises_the_scalar_leverage_error(rng, adjustment):
    pop, zs = _one_unit_marked(rng)
    base = AnalysisConfig(adjustment=adjustment, design=DesignSpec.cre(len(zs[0]) // 2))
    for rows, error in ((zs, LeverageOnePointError), (zs[1:], RankDeficientDesignError)):
        with pytest.raises(error) as scalar:
            reference_score_draws(pop, rows, base, (0.075,))
        with pytest.raises(error) as batched:
            simulation._score(pop, rows, base, (0.075,))
        assert str(batched.value) == str(scalar.value)
    assert str(batched.value) == (
        "design is rank deficient (column 5 collinear with earlier columns)")


def test_batched_adjusted_refits_leverage_one_draws_under_ehw(rng, monkeypatch):
    # EHW weights do not depend on leverage: the guarded draws are refit by
    # the scalar path and score as it does
    pop, zs = _one_unit_marked(rng)
    keep = [0, 2]
    base = AnalysisConfig(adjustment="ehw", design=DesignSpec.cre(len(zs[0]) // 2))
    _assert_batched_matches_scalar(pop, base, true_sample_late(pop), zs[keep], (0.075,),
                                   simulation._score, exact=True)
    refits = []
    fit = simulation.fit_interacted_pair
    monkeypatch.setattr(simulation, "fit_interacted_pair",
                        lambda ds, z: refits.append(z) or fit(ds, z))
    simulation._score(pop, zs[keep], base, (0.075,))
    assert len(refits) == len(keep)


def test_batched_rem_matches_scalar_with_floored_and_degenerate_families(rng):
    # outcomes exactly linear in the covariates with opposite slopes in the
    # two arms, and every unit a complier: the rerandomization family of the
    # outcome is a small difference that goes negative (a floored Wald
    # variance), and that of receipt is exactly zero, so r2_star is degenerate
    n, k = 40, 2
    x = rng.standard_normal((n, k))
    x -= x.mean(axis=0)
    slope = np.array([1.0, -0.5])
    pop = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                           y0=-(x @ slope), y1=x @ slope, x=x)
    base = AnalysisConfig(design=DesignSpec.rem(n // 2, p_a=0.2, k=k))
    zs = np.array([draw_assignment(base.design, pop.x, rng).z for _ in range(30)])
    _assert_batched_matches_scalar(pop, base, true_sample_late(pop), zs, (0.075, 0.025),
                                   simulation._score)
    _, scores = simulation._score(pop, zs, base, (0.075,))
    assert scores["wald"].sets.degenerate.any()  # a floored variance
    assert (scores["far"].sets.kind == KINDS.index("point")).any()  # roundoff points
    comps = [variance_components(summarize(pop.reveal(z), z)) for z in zs]
    assert all(r2_star(c).degenerate for c in comps)
    assert any(c.rem[0] < 0.0 for c in comps)
    assert not scores["ts_gamma_0.075"].strong.any()  # zero receipt variance: weak


def test_batched_rem_raises_the_scalar_paths_error():
    # arms of 5 units cannot carry 5 covariates: both paths fail alike
    cfg = StudyConfig(n=10, k=5, tau_w=(0.5,), design="rem", p_a=0.5, reps=3)
    pop, base, _, zs, _ = simulation._cell_draws(cfg, 0, 0.5)
    with pytest.raises(DegenerateCovariatesError) as scalar:
        reference_score_draws(pop, zs, base, cfg.gamma)
    with pytest.raises(DegenerateCovariatesError) as batched:
        simulation._score(pop, zs, base, cfg.gamma)
    assert str(batched.value) == str(scalar.value) == (
        "within-arm covariate covariance is numerically singular")


def test_batched_rem_raises_the_first_failing_draws_first_failure(monkeypatch):
    # a draw's singular arm covariance comes before its FAR set, and an
    # earlier draw's FAR failure before a later draw's singular covariance
    cfg = StudyConfig(n=60, k=2, tau_w=(0.4,), design="rem", p_a=0.1, reps=4, seed=99)
    pop, base, _, zs, _ = simulation._cell_draws(cfg, 0, 0.4)
    spd_inverses = estimation.spd_inverses

    def singular_at(*draws):
        def inverses(mats, what):
            inv, _ = spd_inverses(mats, what)
            return inv, {i: DegenerateCovariatesError(f"singular at {i}") for i in draws}
        return inverses

    far = _interval_arrays(-1e9, 1e9, {1: NoIdentificationError("far at 1"),
                                       2: NoIdentificationError("far at 2")})
    monkeypatch.setattr(simulation, "solve_quadratic_sets", far)
    monkeypatch.setattr(estimation, "spd_inverses", singular_at(2, 3))
    with pytest.raises(NoIdentificationError, match="far at 1"):
        simulation._score(pop, zs, base, cfg.gamma)
    monkeypatch.setattr(estimation, "spd_inverses", singular_at(1))
    with pytest.raises(DegenerateCovariatesError, match="singular at 1"):
        simulation._score(pop, zs, base, cfg.gamma)


def test_batched_cre_matches_scalar_with_constant_receipt_in_each_arm(rng):
    # every unit is a complier: receipt equals assignment, the first-stage
    # variance is zero, and both first-stage tests must call it weak
    n = 20
    y0 = rng.standard_normal(n)
    pop = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                           y0=y0, y1=y0 + 1.0 + rng.standard_normal(n),
                           x=rng.standard_normal((n, 2)))
    base = AnalysisConfig(design=DesignSpec.cre(n // 2))
    zs = np.array([draw_assignment(base.design, pop.x, rng).z for _ in range(5)])
    _assert_batched_matches_scalar(pop, base, true_sample_late(pop), zs, (0.075, 0.025))
    _, scores = simulation._score(pop, zs, base, (0.075,))
    assert not scores["ts_gamma_0.075"].strong.any() and not scores["ts_f10"].strong.any()


# (b_y, b_w, q_y, q_c, q_w) at crit 1 -> the geometry solve_quadratic_set gives
_GEOMETRY_CASES = [
    ((1.0, 1.0, 0.1, 0.01, 0.05), "interval"),
    ((0.0, 1.0, 0.1, 0.0, 0.05), "interval"),  # b == 0: symmetric roots
    ((1.0, 0.1, 0.1, 0.0, 0.05), "two_rays"),
    ((0.1, 0.1, 1.0, 0.0, 1.0), "whole_line"),
    ((1.0, 0.5, 0.5, 0.0, 0.25), "right_ray"),  # a == 0 exactly
    ((-1.0, 0.5, 0.5, 0.0, 0.25), "left_ray"),
    ((1.0, 0.5, 2.0, 0.5, 0.25), "whole_line"),  # a == b == 0, c < 0
    ((1.0, 1.0, 0.1, 0.5, 0.1), "point"),  # negative discriminant: roundoff
    ((1.0, 0.5, 0.5, 0.5, 0.25), "point"),  # a == b == 0, c > 0
    ((1.0, 0.0, 0.5, 0.0, -1.0), "empty"),  # b_w == 0 and an empty set
    ((1.0, 0.0, 0.5, 0.0, 0.0), "empty"),
]


def test_vectorized_inverter_matches_scalar_geometry():
    b_y, b_w, q_y, q_c, q_w = np.array([case for case, _ in _GEOMETRY_CASES]).T
    sets = solve_quadratic_sets(b_y, b_w, 1.0, q_y, q_c, q_w)
    for j, ((cb_y, cb_w, *q), expected) in enumerate(_GEOMETRY_CASES):
        if expected == "empty":
            with pytest.raises(NoIdentificationError):
                solve_quadratic_set(cb_y, cb_w, 1.0, *q)
            assert isinstance(sets.errors[j], NoIdentificationError)
            continue
        cs = solve_quadratic_set(cb_y, cb_w, 1.0, *q)
        assert cs.kind == expected
        assert j not in sets.errors
        assert KINDS[sets.kind[j]] == cs.kind
        assert (sets.lo[j], sets.hi[j]) == (cs.lo, cs.hi)
        assert sets.degenerate[j] == cs.degenerate
        assert sets.length[j] == cs.length
        for t in (-10.0, -1.0, 0.0, 0.5, 1.0, 2.0, 10.0):
            assert sets.contains(t)[j] == cs.contains(t)


# ------------------------------------------ per-replication bookkeeping

# seeds of one, two and three 32-bit words
_SEEDS = [0, 20240901, 2**32 - 1, 2**32, 2**64 + 3]


@pytest.mark.parametrize("design", ["cre", "rem"])
@pytest.mark.parametrize("seed", _SEEDS)
def test_cell_draws_keep_the_per_replication_streams(seed, design):
    cfg = StudyConfig(n=40, tau_w=(0.3, 0.5), design=design, p_a=0.1, reps=4,
                      seed=seed, k=2)
    for cell, tau_w in enumerate(cfg.tau_w):
        pop, base, _, zs, attempts = simulation._cell_draws(cfg, cell, tau_w)
        ref_zs, ref_attempts = reference_draws(base.design, Covariates(pop.x), seed, cell,
                                               cfg.reps)
        assert np.array_equal(zs, ref_zs)
        assert np.array_equal(attempts, ref_attempts)


def test_draw_entropy_rows_split_ints_as_numpy_does():
    entropy = simulation._draw_entropy(2**64 + 3, 2**32 + 1, 2)
    assert entropy.dtype == np.uint32
    assert entropy.tolist() == [[3, 0, 1, 1, 1, 1], [3, 0, 1, 1, 1, 2]]
    assert simulation._draw_entropy(0, 0, 0).shape == (0, 3)


def _performance_row(method, **values):
    fields = dict(method=method, design="cre", adjustment="none", n=40, tau_w=0.5, reps=3,
                  n_included=3, median_abs_error=0.25, mean_abs_error=0.5, coverage=1.0,
                  median_length=2.0, strong_prop=None,
                  set_kinds={k: int(k == "interval") * 3 for k in KINDS}, degenerate=0,
                  attempts_mean=1.0)
    return simulation.PerformanceRow(**{**fields, **values})


def test_table_json_is_the_deep_copied_rows():
    table = run_study(StudyConfig(n=60, tau_w=(0.05, 0.5), reps=3, seed=5, k=2))
    table.rows += [
        _performance_row("far", median_abs_error=math.inf, mean_abs_error=math.inf,
                         median_length=math.inf, strong_prop=0.5),
        _performance_row("wald_f10", n_included=0, median_abs_error=math.nan,
                         mean_abs_error=math.nan, coverage=math.nan,
                         median_length=math.nan, attempts_mean=math.nan),
    ]
    got, ref = table.to_json_dict(), reference_table_json(table)
    assert got == ref
    assert json.dumps(got) == json.dumps(ref)  # same keys in the same order
    for row, encoded in zip(table.rows, got["rows"]):
        before = dict(row.set_kinds)
        encoded["set_kinds"]["interval"] += 1
        assert row.set_kinds == before
