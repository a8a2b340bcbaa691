import math
import re

import numpy as np
import pytest

from latekit.confidence_sets import far_set, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec
from latekit.estimation import Estimates, VarianceComponents, variance_components
from latekit.exceptions import DegenerateCovariatesError
from latekit.stats_core import SandwichCov, fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import f_screen, first_stage_test, two_stage_set
from oracles import random_dataset


def components_with_vw(v_w):
    return VarianceComponents((1.0, 0.0, v_w))


def cre_config(gamma=0.075, p_plus=0.01):
    return AnalysisConfig(gamma=gamma, p_plus=p_plus, design=DesignSpec.cre(10))


def test_statistic_zero_is_weak():
    cfg = cre_config()
    est = Estimates(tau_y=0.0, tau_w=cfg.p_plus)
    fs = first_stage_test("cre", est, components_with_vw(0.04), cfg)
    assert fs.statistic == pytest.approx(0.0)
    assert not fs.strong


def test_large_statistic_is_strong():
    cfg = cre_config(gamma=0.075)
    v_w = 0.01
    est = Estimates(tau_y=0.0, tau_w=cfg.p_plus + 10 * math.sqrt(v_w))
    fs = first_stage_test("cre", est, components_with_vw(v_w), cfg)
    assert fs.statistic == pytest.approx(10.0)
    assert fs.strong  # 10 > z_{0.075} ~ 1.44


def test_nonpositive_variance_treated_as_weak():
    cfg = cre_config()
    fs = first_stage_test("cre", Estimates(1.0, 0.5), components_with_vw(0.0), cfg)
    assert not fs.strong
    assert fs.degenerate
    assert math.isnan(fs.statistic)


def test_monotone_in_gamma(rng):
    for _ in range(20):
        ds = random_dataset(rng, n=24, k=1)
        s = summarize(ds, ds.z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        strong_at = [first_stage_test("cre", est, comp, cre_config(gamma=g)).strong
                     for g in (0.01, 0.025, 0.075, 0.2)]
        # once strong, stays strong as gamma grows (critical value shrinks)
        for weak_then_strong in zip(strong_at, strong_at[1:]):
            assert weak_then_strong != (True, False)


def test_f_screen_boundary_is_weak():
    comp = components_with_vw(0.01)
    est = Estimates(tau_y=0.0, tau_w=math.sqrt(10 * 0.01))
    fs = f_screen("cre", est, comp)
    assert fs.statistic == pytest.approx(10.0)
    assert not fs.strong  # strict inequality


def test_f_screen_zero_first_stage():
    fs = f_screen("cre", Estimates(0.0, 0.0), components_with_vw(0.01))
    assert fs.statistic == 0.0
    assert not fs.strong


def test_f_screen_adjusted_uses_sandwich(rng):
    ds = random_dataset(rng, n=30, k=2)
    fy, fw = fit_interacted_pair(ds, ds.z)
    cov = sandwich_cov(fy, fw, "ehw")
    est = Estimates(fy.tau_hat, fw.tau_hat)
    fs = f_screen("adjusted", est, cov)
    assert fs.statistic == pytest.approx(fw.tau_hat ** 2 / cov.v_w, rel=1e-12)


def test_branch_matches_standalone_sets(rng):
    cfg = cre_config()
    for _ in range(25):
        ds = random_dataset(rng, n=26, k=2)
        out = two_stage_set("cre", ds, ds.z, cfg)
        s = summarize(ds, ds.z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        if out.branch == "wald":
            assert out.first_stage.strong
            assert out.set == wald_ci("cre", est, comp, cfg)
        else:
            assert not out.first_stage.strong
            assert out.set == far_set("cre", est, comp, cfg)


def test_adjusted_two_stage(rng):
    cfg = AnalysisConfig(adjustment="hc2", design=DesignSpec.cre(10))
    ds = random_dataset(rng, n=40, k=2)
    out = two_stage_set("adjusted", ds, ds.z, cfg)
    fy, fw = fit_interacted_pair(ds, ds.z)
    cov = sandwich_cov(fy, fw, "hc2")
    est = Estimates(fy.tau_hat, fw.tau_hat)
    expected = (wald_ci if out.branch == "wald" else far_set)(
        "adjusted", est, cov, cfg)
    assert out.set == expected


def test_output_serialization(rng):
    ds = random_dataset(rng, n=24, k=1)
    out = two_stage_set("cre", ds, ds.z, cre_config())
    d = out.to_json_dict()
    assert d["branch"] in ("wald", "far")
    assert d["strong"] == (d["branch"] == "wald")
    assert "set" in d and "type" in d["set"]


def test_cre_two_stage_reads_no_covariates(rng):
    # 5 units per arm and 5 covariates: the within-arm covariances are
    # singular, which only the rerandomization families would invert
    x = rng.standard_normal((10, 5))
    ds = Dataset(z=np.repeat([1, 0], 5), w=np.array([1, 1, 1, 0, 1, 0, 1, 0, 0, 0]),
                 y=rng.standard_normal(10), x=x - x.mean(axis=0))
    out = two_stage_set("cre", ds, ds.z, cre_config())
    assert out.branch in ("wald", "far") and out.set.kind
    no_x = Dataset(z=ds.z, w=ds.w, y=ds.y, x=np.zeros((10, 0)))
    assert out == two_stage_set("cre", no_x, no_x.z, cre_config())
    with pytest.raises(DegenerateCovariatesError):
        variance_components(summarize(ds, ds.z))


_EST = Estimates(tau_y=1.0, tau_w=0.5)
_PLAIN = VarianceComponents((1.0, 0.1, 0.04))
_SANDWICH = SandwichCov(v_y=1.0, c_yw=0.1, v_w=0.04, flavor="ehw")
_PROCEDURES = {
    "wald_ci": lambda regime, comp: wald_ci(regime, _EST, comp, cre_config()),
    "far_set": lambda regime, comp: far_set(regime, _EST, comp, cre_config()),
    "first_stage_test": lambda regime, comp: first_stage_test(regime, _EST, comp,
                                                              cre_config()),
    "f_screen": lambda regime, comp: f_screen(regime, _EST, comp),
}


@pytest.mark.parametrize("procedure", list(_PROCEDURES))
@pytest.mark.parametrize("regime,components,message", [
    ("bogus", _PLAIN, "unknown regime: 'bogus'"),
    ("cre", _SANDWICH, "no 'plain' family in SandwichCov"),
    ("adjusted", _PLAIN, "no 'sandwich' family in VarianceComponents"),
], ids=["unknown_regime", "sandwich_under_cre", "plain_under_adjusted"])
def test_unknown_regime_and_wrong_components_raise(procedure, regime, components, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _PROCEDURES[procedure](regime, components)
