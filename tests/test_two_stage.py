import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latekit.confidence_sets import far_set, json_number, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates
from latekit.estimation import Estimates, VarianceComponents, variance_components
from latekit.exceptions import (DegenerateCovariatesError, InvalidDatasetError, LatekitError,
                                RankDeficientDesignError)
from latekit import io
from latekit.io import ALL_METHODS, analyze_stratum
from latekit.stats_core import SandwichCov, fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import f_screen, first_stage_test, two_stage_set
from oracles import (critical_chain_far_set, critical_chain_first_stage_test,
                     critical_chain_wald_ci, one_row_chain, random_dataset)


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


def _cycles_after_error(call, error) -> int:
    """How many objects the garbage collector finds in reference cycles
    after ``call`` raises ``error``, with it off from just before the call."""
    gc.collect()
    gc.disable()
    try:
        try:
            call()
        except error:  # not bound: a name for it would hold its traceback
            pass
        else:
            raise AssertionError(f"no {error.__name__} raised")
        return gc.collect()
    finally:
        gc.enable()


# a kept error is raised as a copy, and a caught one is kept without its
# traceback: raised itself, its traceback's frames would reach what keeps
# it, a cycle holding the call's arrays until the garbage collector runs
def test_two_stage_set_on_non_finite_y_leaves_no_reference_cycle(rng):
    ds = random_dataset(rng, n=30, k=2)
    bad = dataclasses.replace(ds, y=np.where(np.arange(ds.n) == 3, np.inf, ds.y))
    assert _cycles_after_error(lambda: two_stage_set(bad, _CONFIGS["cre"]),
                               InvalidDatasetError) == 0


def test_hc2_two_stage_set_on_collinear_covariates_leaves_no_reference_cycle(rng):
    # the interacted fit raises inside row_families, which keeps the error
    ds = random_dataset(rng, n=30, k=2)
    bad = dataclasses.replace(ds, x=ds.x[:, [0, 0]])
    assert _cycles_after_error(lambda: two_stage_set(bad, _CONFIGS["hc2"]),
                               RankDeficientDesignError) == 0


def test_wald_ci_on_an_infinite_estimate_leaves_no_reference_cycle():
    # the Wald intervals keep the error of a ratio that is not finite
    assert _cycles_after_error(lambda: wald_ci("cre", Estimates(math.inf, 0.5),
                                               components_with_vw(0.2), cre_config()),
                               ValueError) == 0


def test_rem_config_refuses_gamma_of_one_half_or_more(rng):
    # the ReM t test reads the mixture quantile with tail gamma, so the
    # config names gamma before two_stage_set can fail on the tail
    design = DesignSpec.rem(15, p_a=0.1, k=2)
    with pytest.raises(ValueError, match=re.escape("gamma must be in (0, 0.5) under "
                                                   "rerandomization without adjustment")):
        AnalysisConfig(gamma=0.6, design=design)
    ds = random_dataset(rng, n=30, k=2)
    for config in (AnalysisConfig(gamma=0.6), AnalysisConfig(gamma=0.6, adjustment="ehw",
                                                             design=design)):
        assert two_stage_set(ds, config).first_stage.critical < 0.0


def test_wald_and_far_sets_read_no_gamma():
    # only the first-stage t test reads gamma: the ReM sets, scored under a
    # CRE-design config that takes gamma 0.6, are those at gamma 0.075
    comp = VarianceComponents((1.0, 0.1, 0.04), (0.8, 0.08, 0.03), (0.2, 0.02, 0.01), k=2)
    for step in (wald_ci, far_set):
        want = step("rem", Estimates(1.0, 0.5), comp, AnalysisConfig(gamma=0.075))
        assert step("rem", Estimates(1.0, 0.5), comp, AnalysisConfig(gamma=0.6)) == want


def test_rem_without_covariates_raises_one_message_under_every_hash_seed():
    # the families the steps read were once taken from a set, so which
    # family's message came first depended on the hash seed
    probe = "\n".join([
        "import numpy as np",
        "from latekit.data_model import AnalysisConfig, Dataset, DesignSpec",
        "from latekit.two_stage import two_stage_set",
        "rng = np.random.default_rng(1)",
        "ds = Dataset(z=np.repeat([1, 0], 10), w=(rng.random(20) < 0.5).astype(int),",
        "             y=rng.standard_normal(20), x=np.zeros((20, 0)))",
        "try:",
        "    two_stage_set(ds, AnalysisConfig(design=DesignSpec.rem(10, a=1.0)))",
        "except ValueError as exc:",
        "    print(type(exc).__name__, exc)"])
    src = str(Path(io.__file__).resolve().parents[1])
    outs = {subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
            for seed in ("0", "2")}
    assert outs == {"ValueError rerandomization family needs covariates\n"}


def _chain_datasets(rng, count):
    """Centred datasets of 6 to 140 units and 1 to 4 covariates with their
    covariate means, arms of unequal sizes, outcome and covariates on scales
    of 1e-3 to 1e3, and every 50th with a collinear covariate."""
    for i in range(count):
        n, k = int(rng.integers(6, 141)), int(rng.integers(1, 5))
        n1 = int(rng.integers(2, n - 1))
        n1 -= 2 * n1 == n
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:n1]] = 1
        w = ((rng.random(n) < 0.2) | (z == 1) & (rng.random(n) < 0.6)).astype(int)
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, k) + rng.normal(0, 5, k)
        if i % 50 == 0:
            x[:, -1] = 2.0 * x[:, 0] if k > 1 else 1.5
        y = x @ rng.standard_normal(k) + 2.0 * w + rng.standard_normal(n)
        x, means = center_covariates(x)
        yield Dataset(z=z, w=w, y=y * 10.0 ** rng.uniform(-3, 3), x=x), means


def _families_or_error(run):
    """The estimates and family triples ``run()`` gives, or the type and
    message of what it raises."""
    try:
        estimates, components = run()
    except (LatekitError, ValueError) as exc:
        return type(exc), str(exc)
    return estimates, components.plain, components.rem, components.proj


def test_one_row_steps_are_the_old_cre_and_rem_chain_bit_for_bit(rng, monkeypatch):
    # a stratum scored alone, a one-row group of io.score_groups, against
    # summarize plus plain_components or variance_components: its
    # estimates, every family triple, or the error's type and message,
    # exactly; the families are those its one-row row_families call
    # returns, which its score_rows call reads
    seen = []

    def recorded(*args, _build=io.row_families):
        seen.append(_build(*args))
        return seen[-1]
    monkeypatch.setattr(io, "row_families", recorded)

    def one_row(ds, config, means):
        seen.clear()
        estimates, _ = io.stratum_steps(io.score_stratum(ds, config, means), config)
        (_, _, families, _), = seen
        return estimates, VarianceComponents(**{name: tuple(float(v[0]) for v in triple)
                                                for name, triple in families.items()})

    configs = [AnalysisConfig(design=DesignSpec.cre(1)),
               AnalysisConfig(design=DesignSpec.rem(1, a=1.0))]
    errors = 0
    for ds, means in _chain_datasets(rng, 2000):
        for config in configs:
            got = _families_or_error(lambda: one_row(ds, config, means))
            assert got == _families_or_error(lambda: one_row_chain(ds, config, means))
            errors += isinstance(got[0], type)
    assert errors > 100


def _spd(rng, scale):
    """A random positive semi-definite (v_y, c_yw, v_w) triple."""
    a = rng.standard_normal((2, 2)) * scale
    m = a @ a.T
    return m[0, 0], m[0, 1], m[1, 1]


def _component_sets(rng, count):
    """``count`` (k, p_a, gamma, estimates, components) sets, grouped by
    (k, p_a) so each group's mixture tables serve its rows: projection,
    rerandomization and plain families nested as forms, each side on a scale
    of 1e-3 to 1e3, tau_w 0, 1e-12 or random, tau_y 1e300 on every 50th, a
    negative plain family on 5%, and no covariate families on every 40th."""
    groups = [(k, p_a) for k in range(1, 6) for p_a in (0.001, 0.01, 0.1, 0.5)]
    for i in range(count):
        k, p_a = groups[i * len(groups) // count]
        s_y, s_w = (10.0 ** rng.uniform(-3, 3, 2)).tolist()
        proj = _spd(rng, rng.uniform(0.0, 1.0))
        rem = tuple(map(sum, zip(proj, _spd(rng, 1.0))))
        plain = tuple(map(sum, zip(rem, _spd(rng, rng.uniform(0.0, 1.0)))))
        if rng.random() < 0.05:
            plain = tuple(-v for v in plain)
        proj, rem, plain = (tuple(float(v) for v in (f[0] * s_y * s_y, f[1] * s_y * s_w,
                                                   f[2] * s_w * s_w)) for f in (proj, rem, plain))
        tau_w = (0.0, 1e-12, float(rng.normal(0.0, 4.0)))[int(rng.integers(3))] * s_w
        tau_y = 1e300 if i % 50 == 0 else float(rng.normal(0.0, 2.0)) * s_y
        components = (VarianceComponents(plain) if i % 40 == 1
                      else VarianceComponents(plain, rem, proj, k=k))
        yield k, p_a, float(rng.choice([0.075, 0.025])), Estimates(tau_y, tau_w), components


def _repr_or_error(run):
    try:
        return repr(run())
    except (LatekitError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_one_row_procedures_are_the_scalar_critical_chain_bit_for_bit(rng):
    # wald_ci, far_set and first_stage_test read a row of one score_rows
    # call; the one-row calls with each their own scalar critical value, as
    # they were, give the same repr or error on every set, but for two
    # declared rows: a ReM ratio too large to square on the correlation's
    # scale now gets a Wald interval where the direct quotient was nan, and
    # ReM components without covariate families now name the missing family
    # in wald_ci as in the other steps
    pairs = {"wald_ci": (wald_ci, critical_chain_wald_ci),
             "far_set": (far_set, critical_chain_far_set),
             "first_stage_test": (first_stage_test, critical_chain_first_stage_test)}
    declared = {"huge_ratio": 0, "no_covariates": 0}
    for k, p_a, gamma, estimates, components in _component_sets(rng, 2000):
        config = AnalysisConfig(gamma=gamma, design=DesignSpec.rem(1, p_a=p_a, k=k))
        for regime in ("cre", "rem", "adjusted"):
            comp = SandwichCov(*components.plain, "ehw") if regime == "adjusted" else components
            for name, (new, old) in pairs.items():
                got = _repr_or_error(lambda: new(regime, estimates, comp, config))
                want = _repr_or_error(lambda: old(regime, estimates, comp, config))
                if got == want:
                    continue
                assert (name, regime) == ("wald_ci", "rem"), (name, regime, got, want)
                if want == (ValueError, "rho must be in [0, 1]"):
                    assert got.startswith("ConfidenceSet(kind='interval'"), got
                    declared["huge_ratio"] += 1
                else:
                    assert (got, want) == ((ValueError, "rerandomization family needs "
                                                        "covariates"),
                                           (ValueError, "k must be >= 1"))
                    declared["no_covariates"] += 1
    assert declared["huge_ratio"] >= 5 and declared["no_covariates"] == 50, declared


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


_WRONG = {
    "unknown_regime": ("bogus", _PLAIN, "unknown regime: 'bogus'"),
    "sandwich_under_cre": ("cre", _SANDWICH, "no 'plain' family in SandwichCov"),
    "plain_under_adjusted": ("adjusted", _PLAIN, "no 'sandwich' family in VarianceComponents"),
    "plain_under_rem": ("rem", _PLAIN, "rerandomization family needs covariates"),
}


@pytest.mark.parametrize("case,procedure", [
    pytest.param(case, procedure, id=f"{case}-{procedure}")
    for case in _WRONG for procedure in _PROCEDURES
    # under ReM the F screen reads the plain family alone
    if (case, procedure) != ("plain_under_rem", "f_screen")])
def test_unknown_regime_and_wrong_components_raise(case, procedure):
    regime, components, message = _WRONG[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        _PROCEDURES[procedure](regime, components)
