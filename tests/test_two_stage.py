import dataclasses
import math
import re

import numpy as np
import pytest

from latekit.confidence_sets import far_set, json_number, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates
from latekit.estimation import Estimates, VarianceComponents, variance_components
from latekit.exceptions import DegenerateCovariatesError, InvalidDatasetError, LatekitError
from latekit.io import ALL_METHODS, analyze_stratum
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
        out = two_stage_set(ds, cfg)
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
    # the one-row path fits the two arms in the stratum's QR coordinates
    # (estimation.row_families); the interacted fit and its sandwich, the
    # reference, give the same branch and kind, and the set to roundoff
    cfg = AnalysisConfig(adjustment="hc2", design=DesignSpec.cre(10))
    ds = random_dataset(rng, n=40, k=2)
    out = two_stage_set(ds, cfg)
    fy, fw = fit_interacted_pair(ds, ds.z)
    cov = sandwich_cov(fy, fw, "hc2")
    est = Estimates(fy.tau_hat, fw.tau_hat)
    assert first_stage_test("adjusted", est, cov, cfg).strong == (out.branch == "wald")
    expected = (wald_ci if out.branch == "wald" else far_set)(
        "adjusted", est, cov, cfg)
    assert out.set.kind == expected.kind and out.set.method == expected.method
    assert (out.set.lo, out.set.hi) == pytest.approx((expected.lo, expected.hi), rel=1e-12)


def test_output_serialization(rng):
    ds = random_dataset(rng, n=24, k=1)
    out = two_stage_set(ds, cre_config())
    d = out.to_json_dict()
    assert d["branch"] in ("wald", "far")
    assert d["first_stage"]["strong"] == (d["branch"] == "wald")
    assert d["first_stage"]["kind"] == "t"
    assert "set" in d and "type" in d["set"]


def test_cre_two_stage_reads_no_covariates(rng):
    # 5 units per arm and 5 covariates: the within-arm covariances are
    # singular, which only the rerandomization families would invert
    x = rng.standard_normal((10, 5))
    ds = Dataset(z=np.repeat([1, 0], 5), w=np.array([1, 1, 1, 0, 1, 0, 1, 0, 0, 0]),
                 y=rng.standard_normal(10), x=x - x.mean(axis=0))
    out = two_stage_set(ds, cre_config())
    assert out.branch in ("wald", "far") and out.set.kind
    no_x = Dataset(z=ds.z, w=ds.w, y=ds.y, x=np.zeros((10, 0)))
    assert out == two_stage_set(no_x, cre_config())
    with pytest.raises(DegenerateCovariatesError):
        variance_components(summarize(ds, ds.z))


_CONFIGS = {
    "cre": AnalysisConfig(design=DesignSpec.cre(15)),
    "rem": AnalysisConfig(design=DesignSpec.rem(15, p_a=0.1, k=2)),
    "ehw": AnalysisConfig(adjustment="ehw", design=DesignSpec.cre(15)),
    "hc2": AnalysisConfig(adjustment="hc2", design=DesignSpec.cre(15)),
}


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_two_stage_set_is_the_ts_entry_of_analyze(rng, name):
    config = _CONFIGS[name]
    branches = set()
    for i in range(30):
        # a receipt unrelated to assignment on every other dataset: weak
        # first stages as well as strong ones
        ds = random_dataset(rng, n=30, k=2, binary_w=i % 2 == 0)
        entry = analyze_stratum(ds, ("ts",), config)["methods"]["ts"]
        out = two_stage_set(ds, config)
        fs = out.first_stage
        assert entry["branch"] == out.branch
        assert entry["first_stage"] == {
            "statistic": json_number(fs.statistic), "critical": json_number(fs.critical),
            "strong": fs.strong, "kind": fs.statistic_kind}
        assert entry["set"] == out.set.to_json_dict()
        assert out.to_json_dict() == entry
        branches.add(out.branch)
    assert branches == {"wald", "far"}


@pytest.mark.parametrize("name,change,reason", [
    ("hc2", lambda ds: {"x": ds.x + 5.0}, "covariates not centered: columns [0, 1] "),
    ("cre", lambda ds: {"y": ds.y * 1e300}, "outside [2^-400, 2^400]; rescale y"),
    ("rem", lambda ds: {"x": ds.x * 1e-160}, "variance estimates are not finite"),
    ("cre", lambda ds: {"y": np.where(np.arange(ds.n) == 3, np.nan, ds.y)},
     "y contains non-finite values"),
], ids=["offset_covariates", "huge_y", "tiny_covariates", "nan_y"])
def test_two_stage_set_raises_analyze_skip_reason(rng, name, change, reason):
    config = _CONFIGS[name]
    ds = random_dataset(rng, n=30, k=2)
    two_stage_set(ds, config)  # the unchanged data is analysable
    bad = dataclasses.replace(ds, **change(ds))
    skipped = analyze_stratum(bad, ALL_METHODS, config)["skipped"]
    assert reason in skipped
    with pytest.raises(InvalidDatasetError) as info:
        two_stage_set(bad, config)
    assert str(info.value) == skipped
    assert isinstance(info.value, LatekitError) and isinstance(info.value, ValueError)


def test_two_stage_set_takes_analyze_covariate_offsets(rng):
    # covariates N(0, 1) + 1e9, centred as the README says: their means are
    # left at rounding size, which validate allows only given the offsets
    config = _CONFIGS["hc2"]
    ds = random_dataset(rng, n=40, k=2)
    x, means = center_covariates(rng.standard_normal((40, 2)) + 1e9)
    ds = dataclasses.replace(ds, x=x)
    with pytest.raises(InvalidDatasetError, match="^covariates not centered: columns"):
        two_stage_set(ds, config)
    out = two_stage_set(ds, config, means)
    assert out.to_json_dict() == analyze_stratum(ds, ("ts",), config, means)["methods"]["ts"]


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
