"""The benchmark tracer (``perfbench/tracing.py``) rebinds latekit functions
by name where ``io``, ``simulation`` and the other calling modules import
them. A refactor that drops one of those names would break the traced
benchmark, so entering its rebinding is checked here with the main suite.
"""
import importlib
from pathlib import Path

import numpy as np

from latekit import confidence_sets, io, simulation, two_stage
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, PotentialDataset
from latekit.design import draw_assignment
from latekit.estimation import Estimates
from latekit.io import ALL_METHODS
from latekit.mixture import MixtureParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_and_restores_every_hook(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = io.summarize
    x = rng.standard_normal((20, 2))
    ds = Dataset(z=np.repeat([1, 0], 10), w=(rng.random(20) < 0.5).astype(int),
                 y=rng.standard_normal(20), x=x - x.mean(axis=0))
    config = AnalysisConfig(design=DesignSpec.cre(10))
    tracer = tracing.Tracer()
    with tracing.bound(tracer):
        assert io.summarize is not original
        # io binds these names for the tracer alone: its stratum steps make a
        # one-row row_families call and read a row of one score_rows call
        summary = io.summarize(ds, ds.z)
        estimates = Estimates(summary.tau_y, summary.tau_w)
        components = io.variance_components(summary)
        for step in (io.wald_ci, io.far_set, io.first_stage_test):
            step("cre", estimates, components, config)
        io.f_screen("cre", estimates, components)
        io.analyze_stratum(ds, ALL_METHODS, config)
    assert io.summarize is original
    names = {span.name for span in tracer.spans}
    assert {"stats_core.summarize", "confidence_sets.wald", "confidence_sets.far",
            "two_stage.first_stage", "two_stage.f_screen"} <= names


def test_tracer_counts_one_draw_span_per_study_replication(monkeypatch):
    # design.draw_calls counts the calls simulation makes to draw_assignment;
    # a cell that drew its assignments some other way would read 0 draws
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.bound(tracer):
        simulation.run_study(simulation.StudyConfig(n=40, tau_w=(0.3, 0.5), reps=3,
                                                    seed=5, k=2))
    assert [span.name for span in tracer.spans].count("design.draw") == 6


def test_tracer_notes_r2_star_degeneracy_of_a_rem_stratum(monkeypatch, rng):
    # estimation.r2_star_calls and r2_degenerate count the r2_star spans and
    # their notes, mixture.lookup_calls the lambda_quantile spans; every
    # critical value now comes from score_rows, so no stratum calls these
    # names and they are called here, on a ReM stratum's components
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    n, k = 40, 2
    config = AnalysisConfig(design=DesignSpec.rem(n // 2, p_a=0.2, k=k))
    params = MixtureParams(k=k, a=config.design.a, alpha=config.alpha / 2.0)
    x = rng.standard_normal((n, k))
    x -= x.mean(axis=0)
    slope = np.array([1.0, -0.5])
    # outcomes exactly linear in the covariates and every unit a complier:
    # receipt's rerandomization variance is exactly zero, so r2_star is
    # degenerate; the noisy outcome beside it is not
    linear = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                              y0=-(x @ slope), y1=x @ slope, x=x)
    noisy = PotentialDataset(w0=np.zeros(n, dtype=int), w1=(rng.random(n) < 0.6).astype(int),
                             y0=rng.standard_normal(n), y1=rng.standard_normal(n) + 1.0, x=x)
    for pop, degenerate in ((linear, True), (noisy, False)):
        ds = pop.reveal(draw_assignment(config.design, pop.x, rng).z)
        tracer = tracing.Tracer()
        with tracing.bound(tracer):
            assert "skipped" not in io.analyze_stratum(ds, ALL_METHODS, config)
            components = io.variance_components(io.summarize(ds, ds.z))
            rho = confidence_sets.r2_star(components).value
            for module in (confidence_sets, two_stage):
                module.lambda_quantile(params, rho)
        notes = [span.note for span in tracer.spans if span.name == "estimation.r2_star"]
        assert notes and all(type(note) is bool for note in notes)
        assert all(note is degenerate for note in notes)
        assert [span.name for span in tracer.spans].count("mixture.lookup") == 2
