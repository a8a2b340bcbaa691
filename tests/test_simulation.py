import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from latekit import cli, estimation, mixture, simulation, stats_core, two_stage
from latekit.confidence_sets import (
    KINDS,
    ConfidenceSet,
    SetArrays,
    solve_quadratic_sets,
)
from latekit.data_model import AnalysisConfig, DesignSpec, PotentialDataset, true_sample_late
from latekit.design import Covariates, draw_assignment
from latekit.estimation import REGIMES, r2_star, variance_components
from latekit.exceptions import (
    DegenerateCovariatesError,
    InfeasibleTargetError,
    LatekitError,
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
    reference_solve_quadratic_set,
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


def _stacked_score(pop, zs, base, gammas):
    """The study's scoring pass over the assignment rows of one cell: its
    families, then ``_score`` as for a stack of that cell alone."""
    return simulation._score(*oracles.cell_families(pop, zs, base), base, pop.x.shape[1],
                             gammas)


def _every_cre_assignment(pop):
    """The effect estimates and plain family of every one of the C(n, n/2)
    assignments of ``pop``, by the study scorer's moment families."""
    zs, _ = oracles.every_assignment(pop.n, pop.n // 2)
    base = AnalysisConfig(design=DesignSpec.cre(pop.n // 2))
    tau_y, tau_w, families, _ = oracles.cell_families(pop, zs, base)
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


def _json_rows(rows) -> str:
    """Rows as table.json writes them: every field, each float by its repr."""
    return json.dumps(PerformanceTable(list(rows)).to_json_dict())


@pytest.mark.parametrize("design,adjustment", [("cre", "none"), ("rem", "none"),
                                               ("cre", "ehw"), ("cre", "hc2")])
@pytest.mark.parametrize("stack_rows", [1024, 80, 1])
def test_stacked_pass_gives_the_cell_oracles_rows(monkeypatch, design, adjustment, stack_rows):
    # one stack of three cells, a stack of two beside one of one, and a
    # stack per cell: every row equals run_cell's, field for field (set_kinds,
    # degenerate and attempts_mean too); at tau_w 0.005 (one complier)
    # wald_f10 keeps no draw, and at 0.2 some of its draws but not all
    monkeypatch.setattr(simulation, "STACK_ROWS", stack_rows)
    cfg = StudyConfig(n=200, k=5, tau_w=(0.005, 0.2, 0.5), design=design, p_a=0.1,
                      adjustment=adjustment, reps=40, seed=777)
    table = run_study(cfg)
    oracle = [row for cell, tau_w in enumerate(cfg.tau_w)
              for row in oracles.run_cell(cfg, cell, tau_w)]
    assert _json_rows(table.rows) == _json_rows(oracle)
    assert table.to_csv() == PerformanceTable(oracle).to_csv()
    empty = table.row("wald_f10", 0.005)
    assert empty.n_included == 0 and math.isnan(empty.coverage)
    assert sum(empty.set_kinds.values()) == empty.degenerate == 0
    assert 8 < table.row("wald_f10", 0.2).n_included < cfg.reps
    if design == "rem":
        assert all(r.attempts_mean > 1.0 for r in table.rows)


def _failing(monkeypatch, population_at, far_rows):
    """Make the population of the cell with tau_w ``population_at``
    infeasible, and the FAR sets of the stack rows ``far_rows`` errors."""
    generate = simulation.generate_population

    def rigged(dgp, rng):
        if dgp.tau_w_target == population_at:
            raise InfeasibleTargetError("rigged")
        return generate(dgp, rng)

    monkeypatch.setattr(simulation, "generate_population", rigged)
    solve = two_stage.solve_quadratic_sets

    def far(*args):
        sets = solve(*args)
        return sets._replace(errors={**sets.errors, **{
            row: NoIdentificationError(f"far at {row}") for row in far_rows}})
    monkeypatch.setattr(two_stage, "solve_quadratic_sets", far)


@pytest.mark.parametrize("stack_rows,threads", [(1024, 1), (3, 1), (1024, 2)])
def test_the_lowest_numbered_failing_cells_error_is_raised(monkeypatch, tmp_path, capsys,
                                                           stack_rows, threads):
    # a stack builds cell 1's population before it scores cell 0, yet cell
    # 0's scoring failure is raised; with cell 0's population infeasible,
    # that is raised before cell 1 fails in scoring. Alike with a stack per
    # cell and over two (stand-in) workers; the CLI exits 2 with the error
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulation, "STACK_ROWS", stack_rows)
    cfg = StudyConfig(n=40, tau_w=(0.5, 0.3), reps=3, k=2, threads=threads)
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"n": 40, "tau_w": [0.5, 0.3], "reps": 3, "k": 2,
                                  "threads": threads}))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    with monkeypatch.context() as m:
        _failing(m, population_at=0.3, far_rows=(0,))
        with pytest.raises(NoIdentificationError, match="^far at 0$"):
            run_study(cfg)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: far at 0\n"
    with monkeypatch.context() as m:
        # cell 1's first draw: row 0 of a stack of its own, or row 3 after cell 0
        _failing(m, population_at=0.5, far_rows=(0, 3))
        with pytest.raises(InfeasibleTargetError, match="tau_w=0.5 in 1000 attempts"):
            run_study(cfg)
        assert cli.main(argv) == 2
        assert "tau_w=0.5" in capsys.readouterr().err


@pytest.mark.parametrize("n", [10, 12])
def test_exact_cell_reduces_a_cell_of_any_row_count(n):
    # every C(n, n/2) assignment of a 3-rep cell: the oracle's reduction
    # and the stack's both take the one cell of 252 or 924 rows, alike
    cfg = StudyConfig(n=n, k=1, tau_w=(0.3,), reps=3, seed=777)
    exact = oracles.exact_cell(cfg, 0, 0.3)
    pop, base, truth, _, _ = oracles.cell_draws(cfg, 0, 0.3)
    zs, _ = oracles.every_assignment(n, n // 2)
    assert exact[0].n_included == len(zs) == math.comb(n, n // 2)
    stacked = simulation._rows(cfg, (0.3,), (truth,), np.ones(len(zs)),
                               *_stacked_score(pop, zs, base, cfg.gamma))
    assert _json_rows(stacked) == _json_rows(exact)


def test_study_peak_allocation_is_bounded():
    # each stack holds one cell's assignments at a time and at most
    # STACK_ROWS rows of families: the traced peak of the cre_study
    # benchmark config stays under 1.5 MB, and three 2,000-rep cells (a
    # stack each) peak no more than 1.2 times as high as one
    def peak(cfg):
        run_study(dataclasses.replace(cfg, reps=2))  # imports and caches
        tracemalloc.start()
        try:
            run_study(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cre_study = StudyConfig(n=200, k=5, tau_w=(0.005, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5), reps=50)
    assert peak(cre_study) < 1.5e6
    one = StudyConfig(n=200, k=5, tau_w=(0.5,), reps=2000)
    assert peak(dataclasses.replace(one, tau_w=(0.5, 0.3, 0.2))) <= 1.2 * peak(one)
    # a 2,000-rep HC2 cell fits its arms without gathering their rows: no
    # higher than the 41,183,488 bytes (103 per assignment) of the per-draw
    # arm QR fits before it; 27.1 MB (68 per assignment) when this was written
    assert peak(dataclasses.replace(one, adjustment="hc2")) <= 41_183_488


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
        assert oracles.reference_median_extended(v) == median_extended(v)
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
    # CRE, ReM and HC2 studies over two workers, with chunks of two cells and one
    for design, adjustment in (("cre", "none"), ("rem", "none"), ("cre", "hc2")):
        cfg = StudyConfig(n=60, tau_w=(0.3, 0.5, 0.2), design=design, p_a=0.1,
                          adjustment=adjustment, reps=5, seed=7, k=2)
        serial = run_study(cfg)
        parallel = run_study(dataclasses.replace(cfg, threads=2))
        assert serial.to_csv() == parallel.to_csv(), design
        assert serial.to_json_dict() == parallel.to_json_dict(), design


class _FakePool:
    """A stand-in for ProcessPoolExecutor that starts no process: it records
    each pool's max_workers and the chunks of cells it is given, and runs
    them in this process."""

    pools: list = []

    def __init__(self, max_workers):
        self.chunks = []
        _FakePool.pools.append((max_workers, self.chunks))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self.chunks.append([cell for cell, _ in args[1]])
            yield fn(*args)


@pytest.mark.parametrize("threads,cells,cpus,workers", [
    (8, 3, 64, 3), (100_000, 3, 64, 3), (8, 5, 2, 2), (2, 5, 64, 2), (2, 1, 64, None),
    (4, 3, 1, None), (4, 3, None, None)])
def test_run_study_starts_at_most_one_worker_per_chunk_and_cpu(monkeypatch, threads, cells,
                                                               cpus, workers):
    # min(threads, cells, CPUs) workers, each given one contiguous chunk of
    # the cells; a study that would get one worker runs in this process
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "pools", [])
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
    cfg = StudyConfig(n=40, tau_w=(0.5, 0.3, 0.2, 0.4, 0.1)[:cells], reps=2, k=2,
                      threads=threads)
    table = run_study(cfg)
    if workers is None:
        assert _FakePool.pools == []
    else:
        [(max_workers, chunks)] = _FakePool.pools
        assert max_workers == workers == len(chunks)
        assert [cell for chunk in chunks for cell in chunk] == list(range(cells))
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
    assert table.to_json_dict() == run_study(dataclasses.replace(cfg, threads=1)).to_json_dict()


def test_study_config_bounds_the_assignments_of_a_cell(monkeypatch, tmp_path, capsys):
    # a cell's reps x n assignment matrix is the largest allocation; past
    # the limit the config is refused before anything is drawn
    assert simulation.MAX_CELL_ASSIGNMENTS >= 2000 * 200  # the acceptance cells fit
    monkeypatch.setattr(simulation, "MAX_CELL_ASSIGNMENTS", 1000)
    assert StudyConfig(n=40, reps=25, k=2).reps == 25  # exactly at the limit
    with pytest.raises(ValueError, match=r"^reps \* n must be at most 1,000, the assignments "
                                         r"one cell may draw; got reps=26, n=40$"):
        StudyConfig(n=40, reps=26, k=2)
    config = tmp_path / "study.json"
    config.write_text(json.dumps({"n": 40, "reps": 25, "k": 2, "tau_w": [0.5]}))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--reps", "26"]) == 2
    assert "reps * n must be at most 1,000" in capsys.readouterr().err


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
    monkeypatch.setattr(oracles, "reference_far_set",
                        lambda *args: ConfidenceSet("interval", 0.0, 1.0))
    monkeypatch.setattr(oracles, "reference_wald_ci",
                        lambda *args: ConfidenceSet("interval", -1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", adjustment="ehw", reps=1,
                      seed=99, k=2)
    pop, base, _, zs, _ = oracles.cell_draws(cfg, 0, 0.4)
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
    monkeypatch.setattr(two_stage, "solve_quadratic_sets", _interval_arrays(0.0, 1.0))
    monkeypatch.setattr(two_stage, "wald_intervals", _interval_arrays(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=1, seed=99, k=2)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        run_study(cfg)


@pytest.mark.parametrize("adjustment", ["ehw", "hc2", "hc3"])
def test_wald_longer_than_far_interval_is_an_error_batched_adjusted(monkeypatch, adjustment):
    # so does the batched regression-adjusted pass
    monkeypatch.setattr(two_stage, "solve_quadratic_sets", _interval_arrays(0.0, 1.0))
    monkeypatch.setattr(two_stage, "wald_intervals", _interval_arrays(-1.0, 1.0))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", adjustment=adjustment, reps=1,
                      seed=99, k=2)
    with pytest.raises(ArithmeticError,
                       match=r"Wald interval length 2\.0 exceeds the FAR interval length 1\.0"):
        run_study(cfg)


def test_batched_adjusted_names_the_sandwich_family_when_its_variance_is_negative(
        monkeypatch):
    # a sandwich quadratic is nonnegative by construction; a covariance
    # moved past the bound makes it -(v_y + tau^2 v_w) at every ratio tau
    wald_intervals = two_stage.wald_intervals

    def negative(b_y, b_w, crit, q_y, q_c, q_w, **kwargs):
        tau = b_y / b_w
        return wald_intervals(b_y, b_w, crit, q_y, (q_y + tau * tau * q_w) / tau, q_w,
                              **kwargs)

    monkeypatch.setattr(two_stage, "wald_intervals", negative)
    cfg = StudyConfig(n=60, tau_w=(0.4,), adjustment="hc2", reps=3, seed=99, k=2)
    with pytest.raises(ArithmeticError, match=r"^sandwich variance quadratic is negative: -"):
        run_study(cfg)


def test_every_regime_has_a_batched_pass(rng):
    # _cell_families builds every regime's families by the one builder,
    # without a scalar fallback: each family score_rows reads, for every row
    pop = generate_population(DgpConfig(n=20, tau_w_target=0.2, k=2), rng)
    zs = np.array([rng.permutation(np.repeat([1, 0], 10)) for _ in range(5)])
    designs = {"cre": DesignSpec.cre(10), "rem": DesignSpec.rem(10, p_a=0.5, k=2),
               "adjusted": DesignSpec.cre(10)}
    for regime, spec in REGIMES.items():
        base = AnalysisConfig(adjustment="hc2" if regime == "adjusted" else "none",
                              design=designs[regime])
        tau_y, tau_w, families, errors = oracles.cell_families(pop, zs, base)
        assert base.regime == regime and not errors
        read = {spec.family, spec.screen_family, *(("proj",) if spec.mixture else ())}
        assert read <= set(families)
        assert all(len(v) == len(zs) for v in (tau_y, tau_w, *families[spec.family]))


def test_batched_pass_raises_the_first_failing_draws_first_failure(monkeypatch):
    # as the scalar loop would: draw 1 fails in FAR before draw 2's Wald
    # interval or draw 3's ordering check, and draw 1's Wald check comes first
    far_errors = {1: NoIdentificationError("far at 1"), 2: NoIdentificationError("far at 2")}
    monkeypatch.setattr(two_stage, "solve_quadratic_sets",
                        _interval_arrays(0.0, 1.0, far_errors))
    monkeypatch.setattr(two_stage, "wald_intervals",
                        _interval_arrays(0.25, 0.75, {2: ArithmeticError("wald at 2")}))
    cfg = StudyConfig(n=60, tau_w=(0.4,), design="cre", reps=4, seed=99, k=2)
    with pytest.raises(NoIdentificationError, match="far at 1"):
        run_study(cfg)
    monkeypatch.setattr(two_stage, "wald_intervals",
                        _interval_arrays(0.25, 0.75, {1: ArithmeticError("wald at 1")}))
    with pytest.raises(ArithmeticError, match="wald at 1"):
        run_study(cfg)


@pytest.mark.parametrize("design,adjustment", [("cre", "none"), ("rem", "none"),
                                               ("cre", "hc2")])
def test_rows_reduce_each_methods_own_sets(design, adjustment):
    # _rows works coverage and length out once for the Wald and the FAR sets;
    # every row must still be its own method's sets reduced, for the batched
    # scores and for the scalar ones, whose sets are all distinct arrays
    cfg = StudyConfig(n=40, k=2, tau_w=(0.3,), design=design, p_a=0.1,
                      adjustment=adjustment, reps=60, seed=777)
    pop, base, truth, zs, attempts = oracles.cell_draws(cfg, 0, 0.3)
    for estimates, scores in (_stacked_score(pop, zs, base, cfg.gamma),
                              reference_score_draws(pop, zs, base, cfg.gamma)):
        # every first stage is strong on some draws and weak on others
        assert all(0 < s.strong.mean() < 1 for s in scores.values() if s.strong is not None)
        rows = simulation._rows(cfg, (0.3,), (truth,), attempts, estimates, scores)
        assert [r.method for r in rows] == list(scores)
        for row, s in zip(rows, scores.values()):
            kept = s.included
            assert row.coverage == float(np.mean(s.sets.contains(truth)[kept])), row.method
            assert row.median_length == median_extended(s.sets.length[kept]), row.method


def _close(a, b):
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def _assert_batched_matches_scalar(pop, base, truth, zs, gammas, score=_stacked_score,
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
    pop, base, truth, zs, attempts = oracles.cell_draws(cfg, 0, tau_w)
    # a study has at least one rep; the passes are also checked on none
    zs, attempts = zs[:reps], attempts[:reps]
    assert zs.shape == (reps, n)
    exact = adjustment == "none"
    zero_first_stage = _assert_batched_matches_scalar(pop, base, truth, zs, cfg.gamma,
                                                      exact=exact)
    batched = PerformanceTable(simulation._rows(
        cfg, (tau_w,), (truth,), attempts, *_stacked_score(pop, zs, base, cfg.gamma)))
    scalar = PerformanceTable(oracles.cell_rows(
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
    pop, base, _, zs, _ = oracles.cell_draws(cfg, 0, 0.5)
    with pytest.raises(RankDeficientDesignError) as scalar:
        reference_score_draws(pop, zs, base, cfg.gamma)
    with pytest.raises(RankDeficientDesignError) as batched:
        _stacked_score(pop, zs, base, cfg.gamma)
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
            _stacked_score(pop, rows, base, (0.075,))
        assert str(batched.value) == str(scalar.value)
    assert str(batched.value) == (
        "design is rank deficient (column 5 collinear with earlier columns)")


def test_batched_adjusted_refits_leverage_one_draws_under_ehw(rng, monkeypatch):
    # EHW weights do not depend on leverage: the guarded draws are refit by
    # the scalar path and score as it does
    pop, zs = _one_unit_marked(rng)
    keep = [0, 2]
    base = AnalysisConfig(adjustment="ehw", design=DesignSpec.cre(len(zs[0]) // 2))
    _assert_batched_matches_scalar(pop, base, true_sample_late(pop), zs[keep], (0.075,))
    refits = []
    fit = estimation.fit_interacted_pair
    monkeypatch.setattr(estimation, "fit_interacted_pair",
                        lambda ds, z: refits.append(z) or fit(ds, z))
    _stacked_score(pop, zs[keep], base, (0.075,))
    assert len(refits) == len(keep)


def _four_units_marked(rng, n=20):
    """_one_unit_marked with the marker first and on units 0, 1, n/2 and
    n/2 + 1, and six draws: four good ones, whose arms hold two marked units
    each; after the first two, one whose treated arm holds one marked unit
    (leverage one), and after the next one, one whose treated arm holds all
    four. The marker's reflector is the first of the population's QR, so Q's
    first column is exactly zero off the marked units, and the control arm
    of that draw has an exactly singular M."""
    pop, _ = _one_unit_marked(rng, n)
    x = np.zeros((n, 2))
    x[[0, 1, n // 2, n // 2 + 1], 0] = 1.0
    x[:, 1] = pop.x[:, 0]
    pop = dataclasses.replace(pop, x=x)
    good = np.repeat([1, 0], n // 2)
    lone, four = good.copy(), good.copy()
    lone[[1, n // 2 + 2]] = 0, 1
    four[[2, 3, n // 2, n // 2 + 1]] = 0, 0, 1, 1
    return pop, np.array([good, np.roll(good, -2), lone, np.roll(good, 3), four,
                          np.roll(good, -3)])


@pytest.mark.parametrize("adjustment,error", [("ehw", RankDeficientDesignError),
                                              ("hc2", LeverageOnePointError)])
def test_only_the_guarded_draws_of_a_cell_are_refit(rng, monkeypatch, adjustment, error):
    # one exactly singular arm (a batched np.linalg.inv raises for the whole
    # stack) and one leverage-one arm send their two draws to the scalar
    # path; the four good draws keep the array fit's values
    pop, zs = _four_units_marked(rng)
    n = len(zs[0])
    base = AnalysisConfig(adjustment=adjustment, design=DesignSpec.cre(n // 2))
    q = np.linalg.qr(np.column_stack([pop.x, np.ones(n)]))[0]
    singular = (q * (1.0 - zs[4])[:, None]).T @ q
    assert not singular[0].any()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.stack([np.eye(3), singular]))
    ints, triples, unsure = estimation.arm_fits(
        pop.x, zs, np.array([[pop.y1, pop.w1], [pop.y0, pop.w0]], dtype=float),
        stats_core._FLAVOR_EXPONENT[adjustment])
    bad = [2, 4]
    assert np.flatnonzero(unsure[0] | unsure[1]).tolist() == bad
    refits = []
    fit = estimation.fit_interacted_pair
    monkeypatch.setattr(estimation, "fit_interacted_pair",
                        lambda ds, z: refits.append(z) or fit(ds, z))
    tau_y, tau_w, families, errors = oracles.cell_families(pop, zs, base)
    assert [list(z) for z in refits] == [list(zs[i]) for i in bad]
    good = [0, 1, 3, 5]
    array = np.column_stack([ints[0] - ints[1], triples[0] + triples[1]])[good]
    assert np.column_stack([tau_y, tau_w, *families["sandwich"]])[good].tobytes() == (
        array.tobytes())
    with pytest.raises(error) as scalar:
        reference_score_draws(pop, zs, base, (0.075,))
    with pytest.raises(error) as batched:
        _stacked_score(pop, zs, base, (0.075,))
    assert str(batched.value) == str(scalar.value)
    assert sorted(errors) == ([4] if adjustment == "ehw" else bad)


def _collinear_arms(cond: float, seed: int, n: int = 80, draws: int = 30):
    """An adjusted arm OLS problem whose arm designs [1, a, a + d b, c] have
    a condition number near ``cond``: the ones-and-covariates matrix,
    outcome and receipt columns, and ``draws`` rows of half the units."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal((3, n))
    x = np.column_stack([a, a + 2.3 / cond * b, c])
    x1 = np.column_stack([np.ones(n), x - x.mean(axis=0)])
    yw = np.column_stack([1.0 + a + 2.0 * b + c + rng.standard_normal(n),
                          (rng.random(n) < 0.4).astype(float)])
    idx = np.sort(np.argsort(rng.random((draws, n)), axis=1)[:, :n // 2], axis=1)
    return idx, yw, x1


def _normwise_error(ints, triple, exact_ints, exact_triple) -> float:
    return max(np.max(np.abs(ints - exact_ints)) / np.max(np.abs(exact_ints)),
               np.max(np.abs(triple - exact_triple)) / np.max(np.abs(exact_triple)))


def _arm_fits(idx, yw, x1, expo, stacked=False):
    """estimation.arm_fits of the arm of each row of ``idx`` (its unit
    indices in ``x1``, whose first column is ones), in the oracles' form;
    ``stacked``, with every row its own population (the same one), factored
    by the stacked QR call."""
    marked = np.zeros((len(idx), len(x1)))
    np.put_along_axis(marked, idx, 1.0, axis=1)
    x, yws = x1[:, 1:], np.stack([yw.T, yw.T])
    if stacked:
        x, yws = np.repeat(x[None], len(idx), axis=0), np.repeat(yws[:, :, None], len(idx), axis=2)
    ints, triple, unsure = estimation.arm_fits(x, marked, yws, expo)
    return ints[0], triple[0], unsure[0]


@pytest.mark.parametrize("cond", [1e1, 1e3, 1e4, 1e5])
def test_arm_ols_tracks_the_qr_path_on_nearly_collinear_arms(cond):
    # the fit in the population's QR coordinates, with one population or
    # with a stack of them (analyze's groups), against a reduced QR of every
    # draw's arm design, all against 50-digit arithmetic: the worst
    # normwise relative error of the intercepts and the triple over every
    # draw, none of them guarded
    pytest.importorskip("mpmath")
    worst = {"qr": 0.0, "population_qr": 0.0, "stacked_qr": 0.0}
    for seed in (1, 2):
        idx, yw, x1 = _collinear_arms(cond, seed)
        assert cond / 3 < np.median(np.linalg.cond(x1[idx])) < 3 * cond
        paths = {name: [arm_ols(idx, yw, x1, expo) for expo in range(3)] for name, arm_ols
                 in (("qr", oracles.reference_arm_ols), ("population_qr", _arm_fits),
                     ("stacked_qr", lambda *a: _arm_fits(*a, stacked=True)))}
        for d in range(len(idx)):
            exact_ints, exact_triples = oracles.exact_arm_ols(x1[idx[d]], yw[idx[d]])
            for name, fits in paths.items():
                for (ints, triple, unsure), exact_triple in zip(fits, exact_triples):
                    assert not unsure[d]
                    worst[name] = max(worst[name], _normwise_error(
                        ints[d], triple[d], exact_ints, exact_triple))
    assert worst["population_qr"] <= max(10.0 * worst["qr"], 1e-12), worst
    assert worst["stacked_qr"] <= max(10.0 * worst["qr"], 1e-12), worst


def _analyze_shaped_groups(rng, k=5):
    """Groups of strata of one (n, n1) each, of 10-120 units with k
    covariates, as analyze stacks them: (z, y, w, x, names) per group. One
    group of 10 units cannot carry the 12 interacted columns, one has an
    arm of k + 1 units, and among ordinary strata of 40 units one has
    covariates collinear within its treated arm and one a unit whose own
    covariate gives it leverage one in its arm."""
    groups = []
    for n, n1, names in ((10, 5, ["small0", "small1"]), (20, 6, ["k_plus_1_arm"]),
                         (40, 20, ["plain0", "collinear_arm", "plain1", "lone_unit"]),
                         (120, 55, ["wide0", "wide1", "wide2"])):
        z = np.array([rng.permutation(np.repeat([1, 0], [n1, n - n1])) for _ in names])
        x = rng.standard_normal((len(names), n, k))
        for r, name in enumerate(names):
            treated = np.flatnonzero(z[r])
            if name == "collinear_arm":
                x[r, treated, 1] = 2.0 * x[r, treated, 0]
            if name == "lone_unit":  # the one treated unit off zero
                x[r, treated, 2] = 0.0
                x[r, treated[0], 2] = 1.0
        x -= x.mean(axis=1, keepdims=True)
        w = ((rng.random(z.shape) < 0.3) | (z == 1) & (rng.random(z.shape) < 0.6)).astype(float)
        y = x.sum(axis=2) + 2.0 * w + rng.standard_normal(z.shape)
        groups.append((z, y, w, x, names))
    return groups


@pytest.mark.parametrize("adjustment", ["ehw", "hc2"])
def test_stacked_fits_give_each_stratum_its_one_row_fit_or_error(monkeypatch, adjustment):
    # each group is one row_families call with one population per row; a
    # row it fits in the QR coordinates agrees with the one-row interacted
    # fit to roundoff, and a guarded row is that fit, bit for bit, or its
    # error with the one-row text
    base = AnalysisConfig(adjustment=adjustment, design=DesignSpec.cre(1))
    refit = []
    fit = estimation.fit_interacted_pair
    monkeypatch.setattr(estimation, "fit_interacted_pair",
                        lambda ds, z: refit.append(ds) or fit(ds, z))
    guarded, texts = set(), {}
    for z, y, w, x, names in _analyze_shaped_groups(np.random.default_rng(3)):
        refit.clear()
        tau_y, tau_w, families, errors = estimation.row_families(z, np.stack([y, w]), x, base)
        got = np.column_stack([tau_y, tau_w, *families["sandwich"]])
        refit_rows = {int(np.flatnonzero((z == ds.z).all(axis=1))[0]) for ds in refit}
        guarded |= {names[r] for r in refit_rows}
        for r, name in enumerate(names):
            try:
                fy, fw = fit(stats_core.Dataset(z[r], w[r], y[r], x[r]), z[r])
                want = np.array([fy.tau_hat, fw.tau_hat, *stats_core.sandwich_cov(
                    fy, fw, adjustment).family("sandwich")])
            except LatekitError as exc:
                texts[name] = str(exc)
                assert type(errors[r]) is type(exc) and str(errors[r]) == str(exc), name
                continue
            assert r not in errors, name
            if r in refit_rows:
                assert got[r].tobytes() == want.tobytes(), name
            else:
                assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), name
    assert guarded == {"small0", "small1", "k_plus_1_arm", "collinear_arm", "lone_unit"}
    assert texts["small0"] == texts["small1"] == "need n > 12 rows for 12 columns; got 10"
    assert texts["collinear_arm"].startswith("design is rank deficient")
    if adjustment == "hc2":
        assert texts["k_plus_1_arm"] == texts["lone_unit"] == (
            "leverage-one point: HC2/HC3 weights undefined")
    else:
        assert set(texts) == {"small0", "small1", "collinear_arm"}


@pytest.mark.parametrize("n,k,tau_w", [(60, 2, 0.5), (200, 5, 0.05), (200, 5, 0.5)])
@pytest.mark.parametrize("seed", [20240901, 777])
def test_arm_fits_match_the_r_only_fits_draw_for_draw(n, k, tau_w, seed):
    # both arms of every draw of a study cell, fitted in the population's
    # QR coordinates and from R of each arm's own design: the intercepts
    # and every triple entry agree to 1e-12 normwise, and no draw is guarded
    cfg = StudyConfig(n=n, k=k, tau_w=(tau_w,), adjustment="hc2", reps=40, seed=seed)
    pop, _, _, zs, _ = oracles.cell_draws(cfg, 0, tau_w)
    x1 = np.column_stack([np.ones(n), pop.x])
    for idx, y, w in zip(stats_core._arm_indices(zs, n // 2), (pop.y1, pop.y0), (pop.w1, pop.w0)):
        yw = np.column_stack([y, w]).astype(float)
        for expo in range(3):
            (ints, triple, unsure), (ref_ints, ref_triple, ref_unsure) = (
                _arm_fits(idx, yw, x1, expo), oracles.r_only_arm_ols(idx, yw, x1, expo))
            assert not unsure.any() and not ref_unsure.any()
            for d in range(len(zs)):
                assert _normwise_error(ints[d], triple[d], ref_ints[d], ref_triple[d]) < 1e-12


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
    _assert_batched_matches_scalar(pop, base, true_sample_late(pop), zs, (0.075, 0.025))
    _, scores = _stacked_score(pop, zs, base, (0.075,))
    assert scores["wald"].sets.degenerate.any()  # a floored variance
    assert (scores["far"].sets.kind == KINDS.index("point")).any()  # roundoff points
    comps = [variance_components(summarize(pop.reveal(z), z)) for z in zs]
    assert all(r2_star(c).degenerate for c in comps)
    assert any(c.rem[0] < 0.0 for c in comps)
    assert not scores["ts_gamma_0.075"].strong.any()  # zero receipt variance: weak


def test_batched_rem_raises_the_scalar_paths_error():
    # arms of 5 units cannot carry 5 covariates: both paths fail alike
    cfg = StudyConfig(n=10, k=5, tau_w=(0.5,), design="rem", p_a=0.5, reps=3)
    pop, base, _, zs, _ = oracles.cell_draws(cfg, 0, 0.5)
    with pytest.raises(DegenerateCovariatesError) as scalar:
        reference_score_draws(pop, zs, base, cfg.gamma)
    with pytest.raises(DegenerateCovariatesError) as batched:
        _stacked_score(pop, zs, base, cfg.gamma)
    assert str(batched.value) == str(scalar.value) == (
        "within-arm covariate covariance is numerically singular")


def test_batched_rem_raises_the_first_failing_draws_first_failure(monkeypatch):
    # a draw's singular arm covariance comes before its FAR set, and an
    # earlier draw's FAR failure before a later draw's singular covariance
    cfg = StudyConfig(n=60, k=2, tau_w=(0.4,), design="rem", p_a=0.1, reps=4, seed=99)
    pop, base, _, zs, _ = oracles.cell_draws(cfg, 0, 0.4)
    spd_inverses = estimation.spd_inverses

    def singular_at(*draws):
        def inverses(mats, what):
            inv, _ = spd_inverses(mats, what)
            return inv, {i: DegenerateCovariatesError(f"singular at {i}") for i in draws}
        return inverses

    far = _interval_arrays(-1e9, 1e9, {1: NoIdentificationError("far at 1"),
                                       2: NoIdentificationError("far at 2")})
    monkeypatch.setattr(two_stage, "solve_quadratic_sets", far)
    monkeypatch.setattr(estimation, "spd_inverses", singular_at(2, 3))
    with pytest.raises(NoIdentificationError, match="far at 1"):
        _stacked_score(pop, zs, base, cfg.gamma)
    monkeypatch.setattr(estimation, "spd_inverses", singular_at(1))
    with pytest.raises(DegenerateCovariatesError, match="singular at 1"):
        _stacked_score(pop, zs, base, cfg.gamma)


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
    _, scores = _stacked_score(pop, zs, base, (0.075,))
    assert not scores["ts_gamma_0.075"].strong.any() and not scores["ts_f10"].strong.any()


# (b_y, b_w, q_y, q_c, q_w) at crit 1 -> the geometry of the scalar
# reference_solve_quadratic_set
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
                reference_solve_quadratic_set(cb_y, cb_w, 1.0, *q)
            assert isinstance(sets.errors[j], NoIdentificationError)
            continue
        cs = reference_solve_quadratic_set(cb_y, cb_w, 1.0, *q)
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
    # one stack's streams are derived at once, and each cell draws from its own
    cfg = StudyConfig(n=40, tau_w=(0.3, 0.5), design=design, p_a=0.1, reps=4,
                      seed=seed, k=2)
    cells = list(enumerate(cfg.tau_w))
    design_spec = simulation._analysis_config(cfg).design
    rng, states = simulation._stack_streams(cfg, cells)
    assert len(states) == len(cells) * cfg.reps
    for cell, tau_w in cells:
        pop, zs, attempts = simulation._cell_draws(
            cfg, cell, tau_w, design_spec, rng, states[cell * cfg.reps:(cell + 1) * cfg.reps])
        ref_zs, ref_attempts = reference_draws(design_spec, Covariates(pop.x), seed, cell,
                                               cfg.reps)
        assert np.array_equal(zs, ref_zs)
        assert np.array_equal(attempts, ref_attempts)


@pytest.mark.parametrize("cell", [0, 1, 2**32 + 1])
@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_states_are_numpys_seeding(seed, cell):
    # entropy rows of three to six words: below, at and above the
    # SeedSequence pool of four
    states = simulation._stream_states(simulation._draw_entropy(seed, cell, 300))
    assert states == [np.random.default_rng((seed, cell, 1 + rep)).bit_generator.state
                      for rep in range(300)]


def test_cell_draws_raise_on_a_wrong_stream_state(monkeypatch):
    # each stack checks its first derived state against numpy's seeding;
    # cells 0-1 and 2 are two stacks, and a wrong state in the second stops
    # the study too
    derive = simulation._stream_states
    monkeypatch.setattr(simulation, "_stream_states", lambda entropy: [
        {**s, "state": {**s["state"], "state": s["state"]["state"] ^ int(entropy[0, -2] == 2)}}
        for s in derive(entropy)])
    monkeypatch.setattr(simulation, "STACK_ROWS", 6)
    cfg = StudyConfig(n=40, tau_w=(0.5, 0.3, 0.2), reps=3, k=2)
    with pytest.raises(RuntimeError, match="cell 2, replication 0 differs from numpy"):
        run_study(cfg)
    assert len(run_study(dataclasses.replace(cfg, tau_w=(0.5, 0.3))).rows) == 12


@pytest.mark.parametrize("threads", [1, 2])
def test_run_study_sums_stage_seconds_over_cells(threads):
    table = run_study(StudyConfig(n=40, tau_w=(0.3, 0.5), reps=3, k=2, threads=threads))
    # every other stage does work in every cell, so each sum is timed, not
    # left at 0; a CRE cell reads no mixture table, so "tables" stays 0
    assert list(table.stage_seconds) == list(simulation.STAGES)
    assert table.stage_seconds["tables"] == 0.0
    assert all(v > 0.0 for stage, v in table.stage_seconds.items() if stage != "tables")
    assert "stage_seconds" not in json.dumps(table.to_json_dict())


def test_rem_table_builds_are_timed_as_tables_not_scoring(monkeypatch):
    # a fresh cache and a slow stand-in build: the builds of the first cell
    # fall in "tables", and scoring (a few ms here) takes none of them
    built = []

    def build(params):
        time.sleep(0.2)
        built.append(params.alpha)
        grid = np.linspace(0.0, 1.0, 3)
        return mixture.MixtureQuantileTable(params=params, rho_grid=grid,
                                            lambda_values=np.full(3, 1.5), raw_values=grid)

    monkeypatch.setattr(mixture, "_table_cache", {})
    monkeypatch.setattr(mixture.MixtureQuantileTable, "build", build)
    cfg = StudyConfig(n=40, tau_w=(0.3, 0.5), design="rem", p_a=0.2, reps=3, k=2)
    seconds = run_study(cfg).stage_seconds
    assert built == list(dict.fromkeys((cfg.alpha / 2.0, *cfg.gamma)))
    assert seconds["tables"] >= 0.2 * len(built)
    assert seconds["scoring"] < 0.2


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
