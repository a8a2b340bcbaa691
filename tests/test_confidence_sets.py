import math
from fractions import Fraction

import numpy as np
import pytest

from latekit.confidence_sets import (
    KINDS,
    ConfidenceSet,
    SetArrays,
    far_set,
    solve_quadratic_set,
    solve_quadratic_sets,
    wald_ci,
    wald_intervals,
)
from latekit.data_model import AnalysisConfig, DesignSpec
from latekit.estimation import (
    Estimates,
    VarianceComponents,
    combined_variance,
    variance_components,
)
from latekit.exceptions import NoIdentificationError
from latekit.mixture import normal_quantile
from latekit.stats_core import SandwichCov, fit_interacted_pair, sandwich_cov, summarize
from oracles import (confidence_set_from_json, fieller_endpoints, random_dataset,
                     reference_solve_quadratic_set, set_arrays_from_sets)

Z = normal_quantile(0.975)


def membership_grid(b_y, b_w, crit, q_y, q_c, q_w, taus):
    lhs = (b_y - taus * b_w) ** 2
    rhs = crit ** 2 * (q_y - 2 * taus * q_c + taus ** 2 * q_w)
    return lhs <= rhs


def grid_endpoints(b_y, b_w, crit, q_y, q_c, q_w, lo, hi, points):
    taus = np.linspace(lo, hi, points)
    member = membership_grid(b_y, b_w, crit, q_y, q_c, q_w, taus)
    idx = np.nonzero(member)[0]
    assert idx.size, "grid did not intersect the set"
    return taus[idx[0]], taus[idx[-1]]


def cre_config():
    return AnalysisConfig(design=DesignSpec.cre(10))


# ------------------------------------------------------------ solver tests

def test_simple_symmetric_interval():
    cs = solve_quadratic_set(0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert cs.kind == "interval"
    assert cs.lo == pytest.approx(-1.0, abs=1e-12)
    assert cs.hi == pytest.approx(1.0, abs=1e-12)


def test_interval_against_dense_grid_oracle():
    b_y, b_w, crit = 2.0, 1.0, 1.96
    q_y, q_c, q_w = 0.04, 0.0, 0.01
    cs = solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w)
    assert cs.kind == "interval"
    assert cs.contains(2.0)
    lo, hi = grid_endpoints(b_y, b_w, crit, q_y, q_c, q_w,
                            cs.lo - 0.5, cs.hi + 0.5, 10_000_001)
    assert cs.lo == pytest.approx(lo, abs=1e-4)
    assert cs.hi == pytest.approx(hi, abs=1e-4)


def test_weak_first_stage_gives_infinite_set():
    # g = crit^2 q_w / b_w^2 = 1.96^2 * 0.01 / 0.01 = 3.84 > 1
    cs = solve_quadratic_set(0.5, 0.1, 1.96, 0.3, 0.0, 0.01)
    assert cs.kind in ("two_rays", "whole_line")
    assert math.isinf(cs.length)


def test_two_rays_against_grid():
    b_y, b_w, crit, q_y, q_c, q_w = 1.0, 0.1, 1.96, 0.02, 0.001, 0.01
    cs = solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w)
    if cs.kind != "two_rays":
        pytest.skip("parameters did not produce two rays")
    taus = np.linspace(cs.lo - 1, cs.hi + 1, 500_001)
    member = membership_grid(b_y, b_w, crit, q_y, q_c, q_w, taus)
    inside_gap = (taus > cs.lo + 1e-6) & (taus < cs.hi - 1e-6)
    assert not member[inside_gap].any()
    outside = (taus < cs.lo - 1e-6) | (taus > cs.hi + 1e-6)
    assert member[outside].all()


def test_whole_line_when_variance_dominates():
    cs = solve_quadratic_set(0.0, 0.0, 1.96, 0.04, 0.0, 0.01)
    assert cs.kind == "whole_line"


def test_one_ray_when_leading_coefficient_vanishes():
    # b_w^2 == crit^2 q_w exactly makes the inequality linear
    cs = solve_quadratic_set(1.0, 1.0, 1.0, 0.5, 0.0, 1.0)
    assert cs.kind in ("left_ray", "right_ray")
    bound = 0.25  # from B = -2, C = 0.5
    if cs.kind == "right_ray":
        assert cs.lo == pytest.approx(bound, abs=1e-12)
    else:
        assert cs.hi == pytest.approx(bound, abs=1e-12)
    taus = np.linspace(bound - 2, bound + 2, 10_001)
    member = membership_grid(1.0, 1.0, 1.0, 0.5, 0.0, 1.0, taus)
    agrees = np.array([cs.contains(float(t)) for t in taus]) == member
    assert agrees[np.abs(taus - bound) > 1e-9].all()


def test_truly_empty_raises_no_identification():
    with pytest.raises(NoIdentificationError):
        solve_quadratic_set(1.0, 0.0, 1.96, 0.0, 0.0, 0.0)


def test_wald_point_membership_random(rng):
    for _ in range(200):
        b_y = float(rng.normal())
        b_w = float(rng.normal())
        if b_w == 0.0:
            continue
        q_y, q_w = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5))
        q_c = float(rng.uniform(-1, 1)) * math.sqrt(q_y * q_w)
        cs = solve_quadratic_set(b_y, b_w, 1.96, q_y, q_c, q_w)
        assert cs.contains(b_y / b_w)


# ----------------------------------------------------------- Fieller tests

def test_fieller_matches_quadratic_roots(rng):
    for _ in range(200):
        b_w = float(rng.normal()) or 0.5
        b_y = float(rng.normal())
        q_y, q_w = float(rng.uniform(0.001, 0.3)), float(rng.uniform(0.001, 0.3))
        q_c = float(rng.uniform(-0.99, 0.99)) * math.sqrt(q_y * q_w)
        crit = 1.96
        if crit ** 2 * q_w / b_w ** 2 >= 1:
            continue
        cs = solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w)
        lo, hi = fieller_endpoints(b_y, b_w, crit, q_y, q_c, q_w)
        assert cs.kind == "interval"
        assert lo == pytest.approx(cs.lo, rel=1e-9, abs=1e-12)
        assert hi == pytest.approx(cs.hi, rel=1e-9, abs=1e-12)


def test_fieller_no_cross_covariance_case():
    # with q_c = q_y = 0 the set collapses around the ratio point
    lo, hi = fieller_endpoints(2.0, 1.0, 1.5, 0.0, 0.0, 0.1)
    cs = solve_quadratic_set(2.0, 1.0, 1.5, 0.0, 0.0, 0.1)
    assert lo == pytest.approx(cs.lo, rel=1e-9)
    assert hi == pytest.approx(cs.hi, rel=1e-9)


def test_fieller_symmetric_zero_numerator():
    b_y, b_w, crit, q_y, q_c, q_w = 0.0, 1.0, 1.96, 0.05, 0.01, 0.02
    lo, hi = fieller_endpoints(b_y, b_w, crit, q_y, q_c, q_w)
    cs = solve_quadratic_set(b_y, b_w, crit, q_y, q_c, q_w)
    assert lo == pytest.approx(cs.lo, rel=1e-9, abs=1e-12)
    assert hi == pytest.approx(cs.hi, rel=1e-9, abs=1e-12)
    # interval is symmetric about the variance-shifted center
    center = -crit ** 2 * q_c / (1 - crit ** 2 * q_w)
    assert (lo + hi) / 2 == pytest.approx(center, rel=1e-9, abs=1e-12)


def test_fieller_g_to_zero_limit_is_wald_form():
    b_y, b_w, crit, q_y = 1.0, 2.0, 1.96, 0.09
    lo, hi = fieller_endpoints(b_y, b_w, crit, q_y, 0.0, 0.0)
    tau = b_y / b_w
    radius = crit * math.sqrt(q_y) / abs(b_w)
    assert lo == pytest.approx(tau - radius, rel=1e-12)
    assert hi == pytest.approx(tau + radius, rel=1e-12)


def test_fieller_rejects_weak_g():
    with pytest.raises(ValueError, match="g"):
        fieller_endpoints(1.0, 0.1, 1.96, 0.3, 0.0, 0.01)


# ------------------------------------------------- regime-level procedures

def test_wald_ci_known_arithmetic():
    # center 4, radius 1.96 * 0.2 / 0.5
    from latekit.estimation import VarianceComponents

    comp = VarianceComponents((0.0, 0.0, 0.0))
    est = Estimates(tau_y=2.0, tau_w=0.5)
    cfg = cre_config()
    # plain family evaluated at tau=4 must give 0.04: craft components
    # v_y - 2*4*c + 16*v_w = 0.04 with c = v_w = 0
    comp = VarianceComponents((0.04, 0.0, 0.0))
    ci = wald_ci("cre", est, comp, cfg)
    assert ci.lo == pytest.approx(4 - 1.96 * 0.2 / 0.5, abs=2e-4)
    assert ci.hi == pytest.approx(4 + 1.96 * 0.2 / 0.5, abs=2e-4)


@pytest.mark.parametrize("regime", ["cre", "rem"])
@pytest.mark.parametrize("tau_y", [1e300, -1e300])
def test_wald_ci_rejects_a_ratio_that_overflows(regime, tau_y):
    # tau_y / tau_w is beyond the float range: an error, as for any
    # non-finite ratio estimate, not a set with nan endpoints
    from latekit.estimation import VarianceComponents

    comp = VarianceComponents((1.0, 0.1, 0.5), (0.8, 0.1, 0.4), (0.2, 0.05, 0.1), k=2)
    cfg = cre_config() if regime == "cre" else AnalysisConfig(
        design=DesignSpec.rem(10, p_a=0.1, k=2))
    with pytest.raises(ValueError, match="^tau_hat must be finite$"):
        wald_ci(regime, Estimates(tau_y, 1e-10), comp, cfg)
    sets = wald_intervals(np.array([tau_y, 1.0]), np.array([1e-10, 0.5]), Z,
                          *(np.array([v, v]) for v in comp.plain))
    assert list(sets.errors) == [0] and sets.entry(1).kind == "interval"


def test_wald_ci_zero_first_stage_is_infinite():
    from latekit.estimation import VarianceComponents

    comp = VarianceComponents((0.04, 0.0, 0.01))
    ci = wald_ci("cre", Estimates(tau_y=1.0, tau_w=0.0), comp, cre_config())
    assert ci.kind == "whole_line"
    assert math.isinf(ci.length)


def test_far_set_frozen_rhs_equals_wald_ci(rng):
    # replacing the candidate value by the ratio estimate in the right-hand
    # side turns the inversion into the Wald interval
    for _ in range(20):
        ds = random_dataset(rng, n=24, k=2)
        s = summarize(ds, ds.z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        if est.tau_w == 0:
            continue
        cfg = cre_config()
        ci = wald_ci("cre", est, comp, cfg)
        tau = est.tau_y / est.tau_w
        vhat = comp.plain[0] - 2 * tau * comp.plain[1] + tau ** 2 * comp.plain[2]
        frozen = solve_quadratic_set(est.tau_y, est.tau_w, Z, vhat, 0.0, 0.0)
        assert frozen.kind == "interval"
        assert frozen.lo == pytest.approx(ci.lo, rel=1e-9, abs=1e-12)
        assert frozen.hi == pytest.approx(ci.hi, rel=1e-9, abs=1e-12)


def test_far_contains_wald_and_is_longer(rng):
    cfg = cre_config()
    for _ in range(50):
        ds = random_dataset(rng, n=30, k=2)
        s = summarize(ds, ds.z)
        comp = variance_components(s)
        est = Estimates(s.tau_y, s.tau_w)
        if est.tau_w == 0:
            continue
        far = far_set("cre", est, comp, cfg)
        assert far.contains(est.tau_y / est.tau_w)
        ci = wald_ci("cre", est, comp, cfg)
        if far.kind == "interval":
            assert ci.length <= far.length + 1e-9
        else:
            assert math.isinf(far.length)


def test_adjusted_far_and_wald(rng):
    cfg = AnalysisConfig(adjustment="ehw", design=DesignSpec.cre(10))
    for _ in range(20):
        ds = random_dataset(rng, n=30, k=2)
        fy, fw = fit_interacted_pair(ds, ds.z)
        cov = sandwich_cov(fy, fw, "ehw")
        est = Estimates(fy.tau_hat, fw.tau_hat)
        if est.tau_w == 0:
            continue
        far = far_set("adjusted", est, cov, cfg)
        ci = wald_ci("adjusted", est, cov, cfg)
        assert far.contains(est.tau_y / est.tau_w)
        if far.kind == "interval":
            assert ci.length <= far.length + 1e-9


# ------------------------------------------------------------ serialization

@pytest.mark.parametrize("cs", [
    ConfidenceSet("interval", -1.5, 2.5),
    ConfidenceSet("point", 3.0, 3.0),
    ConfidenceSet("left_ray", hi=1.0),
    ConfidenceSet("right_ray", lo=-2.0),
    ConfidenceSet("two_rays", -1.0, 4.0),
    ConfidenceSet("whole_line"),
])
def test_json_round_trip(cs):
    encoded = cs.to_json_dict()
    if math.isinf(cs.length):
        assert encoded["length"] == "inf"
    else:
        assert encoded["length"] == pytest.approx(cs.length)
    decoded = confidence_set_from_json(encoded)
    assert decoded.kind == cs.kind
    assert decoded.length == cs.length
    for probe in (-10.0, 0.0, 3.0, 10.0):
        assert decoded.contains(probe) == cs.contains(probe)


def test_lengths():
    assert ConfidenceSet("interval", 1.0, 3.0).length == 2.0
    assert ConfidenceSet("point", 2.0, 2.0).length == 0.0
    assert math.isinf(ConfidenceSet("two_rays", 0.0, 1.0).length)
    assert math.isinf(ConfidenceSet("whole_line").length)


@pytest.mark.parametrize("family", ["plain", "sandwich"])
def test_wald_intervals_names_the_negative_family_as_combined_variance_does(family):
    # a covariance beyond the Cauchy-Schwarz bound makes the quadratic
    # negative at the ratio 1; draw 0 is fine, draw 1 is not
    b_y, b_w = np.array([1.0, 1.0]), np.array([1.0, 1.0])
    q_y, q_c, q_w = np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])
    sets = wald_intervals(b_y, b_w, Z, q_y, q_c, q_w, family=family)
    assert list(sets.errors) == [1]
    with pytest.raises(ArithmeticError) as scalar:
        combined_variance(SandwichCov(v_y=1.0, c_yw=2.0, v_w=1.0, flavor="hc2"), 1.0,
                          "sandwich")
    assert str(scalar.value) == "sandwich variance quadratic is negative: -2.0"
    assert str(sets.errors[1]) == f"{family} variance quadratic is negative: -2.0"
    floored = wald_intervals(b_y, b_w, Z, q_y, q_c, q_w, family="rem")
    assert not floored.errors and list(floored.degenerate) == [False, True]


# ------------------------------------------- array inversion, property tests

def _random_families(seed=7, n=400):
    """(b_y, b_w, crit, q_y, q_c, q_w) rows with positive semi-definite
    variance forms, every tenth with a zero first stage."""
    gen = np.random.default_rng(seed)
    b_y, b_w = gen.normal(0.0, 1.0, n), gen.normal(0.0, 0.5, n)
    b_w[::10] = 0.0
    m = gen.standard_normal((n, 2, 2))
    s = m @ m.transpose(0, 2, 1) / 4.0
    return b_y, b_w, np.full(n, Z), s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]


def _inversion_families():
    """The random families, then rows whose leading coefficient a sits just
    inside and just outside its tolerance, zero first stages with a
    vanishing q_w (rays, the whole line, empty sets) and an indefinite form
    (the roundoff point)."""
    edge = []
    for delta in (0.0, 1e-14, -1e-14, 5e-13, -5e-13, 2e-12, -2e-12, 1e-10, -1e-10):
        # a = b_w^2 - crit^2 q_w is about -delta b_w^2 against a tolerance
        # of 1e-12 b_w^2
        for b_y0, q_c0 in ((1.0, 0.0), (-0.7, 0.3), (0.0, -0.2)):
            edge.append((b_y0, 0.8, Z, 0.5, q_c0, 0.64 * (1.0 + delta) / Z ** 2))
    edge += [(1.0, 0.0, Z, 0.3, 0.1, 0.0), (1.0, 0.0, Z, 0.3, -0.1, 0.0),  # rays
             (0.5, 0.0, Z, 0.1, 0.0, 0.0),  # whole line
             (1.0, 0.0, Z, 0.0, 0.0, 0.0), (1.0, 0.0, Z, 0.2, 0.0, 0.0),  # empty
             (1.0, 1.0, Z, 0.1, 0.2, 0.1)]  # indefinite form: a roundoff point
    return tuple(np.concatenate([np.column_stack(_random_families()), edge]).T.copy())


def _assert_paths_agree(args) -> SetArrays:
    """solve_quadratic_sets against the scalar reference_solve_quadratic_set
    row by row: the same kind, endpoint bits and flag, or the same error."""
    sets = solve_quadratic_sets(*args)
    for i in range(len(args[0])):
        try:
            cs = reference_solve_quadratic_set(*(float(v[i]) for v in args))
        except NoIdentificationError as exc:
            assert type(sets.errors[i]) is NoIdentificationError
            assert str(sets.errors[i]) == str(exc)
            continue
        assert i not in sets.errors
        one = set_arrays_from_sets([cs])
        assert (sets.kind[i], sets.degenerate[i]) == (one.kind[0], one.degenerate[0])
        assert (np.array([sets.lo[i], sets.hi[i]]).tobytes()
                == np.array([one.lo[0], one.hi[0]]).tobytes())
    return sets


def _scaled(args, s):
    """Estimates times s and variance forms times s^2: the same set."""
    b_y, b_w, crit, q_y, q_c, q_w = args
    return b_y * s, b_w * s, crit, q_y * s * s, q_c * s * s, q_w * s * s


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_array_inversion_matches_scalar_bit_for_bit(scale):
    sets = _assert_paths_agree(_scaled(_inversion_families(), scale))
    names = {KINDS[k] for k in sets.kind}
    # every geometry, the roundoff point and the rays of the array path's
    # one-draw-at-a-time rest, and an empty set raised, not a whole line
    assert {"interval", "two_rays", "whole_line", "point", "left_ray", "right_ray"} <= names
    assert [type(e) for e in sets.errors.values()] == [NoIdentificationError] * 2
    assert sets.degenerate[sets.kind == KINDS.index("point")].all()


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_array_inversion_membership_matches_dense_grid(scale):
    args = _inversion_families()
    sets = solve_quadratic_sets(*_scaled(args, scale))
    for i in range(len(args[0])):
        if i in sets.errors or sets.degenerate[i]:
            continue  # an empty set, or a roundoff point of an indefinite form
        ends = np.array([sets.lo[i], sets.hi[i]])
        ends = ends[np.isfinite(ends)]
        reach = 4.0 * max(1.0, np.abs(ends).max(initial=0.0))
        taus = np.linspace(-reach, reach, 20_001)
        truth = membership_grid(*(float(v[i]) for v in args), taus)
        got = SetArrays(*(np.atleast_1d(v[i]) for v in sets[:4]), errors={}).contains(
            taus[:, None])[:, 0]
        clear = np.all(np.abs(taus[:, None] - ends) > 1e-6 * np.maximum(1.0, np.abs(ends)),
                       axis=1)
        assert (truth == got)[clear].all(), (i, KINDS[sets.kind[i]])


def _property_families(seed=11):
    """(b_y, b_w, crit, q_y, q_c, q_w) rows: random positive semidefinite
    forms; rows whose leading coefficient a is within its tolerance (rays);
    and zero first stages whose q_w is 0 or vanishing, with q_c zero (the
    whole line or an empty set) or not. Each row's estimates are times its
    own 2^u and its form times 2^2u, u uniform on [-500, 500]."""
    gen = np.random.default_rng(seed)
    n, m = 1200, 200
    b_y, b_w = gen.normal(0.0, 1.0, n + 2 * m), gen.normal(0.0, 0.5, n + 2 * m)
    crit = gen.uniform(1.0, 3.0, n + 2 * m)
    f = gen.standard_normal((n + 2 * m, 2, 2))
    s = f @ f.transpose(0, 2, 1) / 4.0
    q_y, q_c, q_w = s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]
    corr = gen.uniform(-1.0, 1.0, n + 2 * m)
    # |a| within its tolerance of 1e-12 b_w^2, the form still semidefinite
    tol = slice(n, n + m)
    q_w[tol] = b_w[tol] ** 2 * (1.0 + gen.choice([0.0, 1e-14, -1e-14, 5e-13, -5e-13, 9e-13,
                                                  -9e-13], m)) / crit[tol] ** 2
    q_c[tol] = corr[tol] * np.sqrt(q_y[tol] * q_w[tol])
    zero = slice(n + m, n + 2 * m)
    b_w[zero] = 0.0
    q_w[zero] = q_y[zero] * gen.choice([0.0, 1e-30], m)
    q_c[zero] = np.where(gen.random(m) < 0.5, 0.0, gen.normal(0.0, 0.3, m))
    q_y[zero] *= gen.uniform(0.0, 2.0, m)
    scale = np.exp2(gen.uniform(-500.0, 500.0, n + 2 * m))
    return (b_y * scale, b_w * scale, crit, q_y * scale ** 2, q_c * scale ** 2,
            q_w * scale ** 2)


def _exact_member(row, t: Fraction) -> bool:
    """Whether ``t`` is in the set of one row, in exact rationals of its doubles."""
    b_y, b_w, crit, q_y, q_c, q_w = row
    return (b_y - t * b_w) ** 2 <= crit * crit * (q_y - 2 * t * q_c + t * t * q_w)


def test_inversion_endpoints_hold_in_exact_arithmetic():
    # a point 1e-9 relative inside each finite endpoint is in the set, one
    # 1e-9 relative outside it is not; a degenerate point has only an
    # outside, and an empty set no member. A ray drops a*t^2 from the
    # inequality, which moves its endpoint t by about a*t^2/b: rays where
    # that is not well below the margin are not checked
    args = _property_families()
    sets = solve_quadratic_sets(*args)
    # the side of each endpoint the set lies on: +1 above it, -1 below it
    # (a point is checked as the interval [lo, hi], on its outside only)
    sides = {"interval": (1, -1), "point": (1, -1), "two_rays": (-1, 1),
             "left_ray": (None, -1), "right_ray": (1, None)}
    seen = {name: 0 for name in (*KINDS, "empty")}
    for i in range(len(args[0])):
        row = [Fraction(float(v[i])) for v in args]
        if i in sets.errors:
            assert type(sets.errors[i]) is NoIdentificationError
            assert not any(_exact_member(row, Fraction(t)) for t in (-1e3, -1.0, 0.0, 1.0, 1e3))
            seen["empty"] += 1
            continue
        kind = KINDS[sets.kind[i]]
        b_y, b_w, crit, _, q_c, q_w = row
        a, b = b_w * b_w - crit * crit * q_w, -2 * (b_y * b_w - crit * crit * q_c)
        for end, side in zip((sets.lo[i], sets.hi[i]), sides.get(kind, ())):
            if side is None:
                continue
            end = Fraction(float(end))
            if kind.endswith("_ray") and abs(a * end) > abs(b) / 10 ** 10:
                break
            delta = abs(end) / 10 ** 9
            if kind != "point":
                assert _exact_member(row, end + side * delta), (i, kind, "inside")
            assert not _exact_member(row, end - side * delta), (i, kind, "outside")
        else:
            seen[kind] += 1
    assert min(seen[k] for k in ("interval", "two_rays", "left_ray", "right_ray",
                                 "whole_line", "empty")) >= 10, seen


# an interval, two rays, the whole line and a left ray whose squared
# estimates or scaled variance forms overflow at 2^511 and stay normal
# numbers at 2^-511
_NEAR_OVERFLOW = tuple(np.array([[3.0, 2.0, 1.959964, 1.0, 0.0, 1.0],
                                 [2.0, 1.0, 1.959964, 1.0, 0.0, 1.0],
                                 [1.0, 1.0, 1.959964, 2.0, 0.0, 1.0],
                                 [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]]).T.copy())


@pytest.mark.parametrize("scale", [2.0 ** 498, 2.0 ** -498])
def test_power_of_two_scaling_keeps_every_bit(scale):
    # the scaling is exact, so the set is the unscaled one, bit for bit: the
    # random rows (not the edge rows, which sit on tolerances) at 2^+-498,
    # and rows near the ends of the float range at 2^+-511
    edge = 2.0 ** 511 if scale > 1.0 else 2.0 ** -511
    for args, s in ((_random_families(), scale), (_NEAR_OVERFLOW, edge)):
        base = solve_quadratic_sets(*args)
        sets = _assert_paths_agree(_scaled(args, s))
        for got, want in zip(sets[:4], base[:4]):
            assert got.tobytes() == want.tobytes()
    assert [KINDS[k] for k in base.kind] == ["interval", "two_rays", "whole_line", "left_ray"]


def test_inversion_keeps_a_ray_endpoint_near_overflow():
    # (1e300)^2 <= -2t * 1e300 is t <= -5e299, though the square overflows
    args = (1e300, 0.0, 1.0, 0.0, 1e300, 0.0)
    cs = reference_solve_quadratic_set(*args)
    one = solve_quadratic_set(*args)
    assert cs.kind == one.kind == "left_ray"
    for hi in (cs.hi, one.hi):
        assert abs(hi + 5e299) <= 1e-15 * 5e299


def test_inversion_is_equivariant_in_each_sides_scale():
    # the y side (b_y, q_y) times 2^u, the w side (b_w, q_w) times 2^v and
    # q_c times 2^(u+v) is the same inequality in t 2^(v-u): the set is the
    # unscaled one times 2^(u-v), exactly, for u and v apart by up to 960
    gen = np.random.default_rng(31)
    rows = 3000
    b_y, b_w = gen.normal(0.0, 1.0, rows), gen.normal(0.0, 0.5, rows)
    crit = gen.uniform(1.0, 3.0, rows)
    f = gen.standard_normal((rows, 2, 2))
    s = f @ f.transpose(0, 2, 1) / 4.0
    q_y, q_c, q_w = s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]
    u, v = gen.integers(-480, 481, rows), gen.integers(-480, 481, rows)
    base = solve_quadratic_sets(b_y, b_w, crit, q_y, q_c, q_w)
    sets = solve_quadratic_sets(np.ldexp(b_y, u), np.ldexp(b_w, v), crit, np.ldexp(q_y, 2 * u),
                                np.ldexp(q_c, u + v), np.ldexp(q_w, 2 * v))
    assert {KINDS[k] for k in base.kind} >= {"interval", "two_rays", "whole_line"}
    assert base.errors == sets.errors == {}
    wrong_kind = np.flatnonzero((sets.kind != base.kind) | (sets.degenerate != base.degenerate))
    assert wrong_kind.size == 0, (wrong_kind.size, wrong_kind[:5])
    for got, want in ((sets.lo, base.lo), (sets.hi, base.hi)):
        assert got.tobytes() == np.ldexp(want, u - v).tobytes()


def _psd_rows(seed: int, rows: int = 3000):
    """(b_y, b_w, crit, q_y, q_c, q_w) rows with positive semi-definite
    variance forms and critical values in [1, 3)."""
    gen = np.random.default_rng(seed)
    b_y, b_w = gen.normal(0.0, 1.0, rows), gen.normal(0.0, 0.5, rows)
    crit = gen.uniform(1.0, 3.0, rows)
    f = gen.standard_normal((rows, 2, 2))
    s = f @ f.transpose(0, 2, 1) / 4.0
    return b_y, b_w, crit, s[:, 0, 0], s[:, 0, 1], s[:, 1, 1]


def test_wald_intervals_are_equivariant_in_each_sides_scale():
    # the y side times 2^u and the w side times 2^v scale the ratio and its
    # standard error, so the interval, by 2^(u-v), exactly, for u and v
    # apart by up to 960: the variance at the ratio is taken on each side's
    # own scale, not as the square of a ratio that may overflow
    b_y, b_w, crit, q_y, q_c, q_w = _psd_rows(32)
    gen = np.random.default_rng(33)
    u, v = gen.integers(-480, 481, len(b_y)), gen.integers(-480, 481, len(b_y))
    base = wald_intervals(b_y, b_w, crit, q_y, q_c, q_w)
    sets = wald_intervals(np.ldexp(b_y, u), np.ldexp(b_w, v), crit, np.ldexp(q_y, 2 * u),
                          np.ldexp(q_c, u + v), np.ldexp(q_w, 2 * v))
    assert base.errors == sets.errors == {}
    assert (base.kind == KINDS.index("interval")).all()
    wrong = np.flatnonzero((sets.kind != base.kind) | (sets.degenerate != base.degenerate))
    assert wrong.size == 0, (wrong.size, wrong[:5])
    for got, want in ((sets.lo, base.lo), (sets.hi, base.hi)):
        off = np.flatnonzero(got != np.ldexp(want, u - v))
        assert off.size == 0, (off.size, off[:5])


def test_wald_ci_of_far_apart_sides_matches_a_50_digit_solve():
    # a y side near 2^300 beside a w side near 2^-300: the ratio, 1.25 2^600,
    # squared overflowed and the interval came out as (-inf, inf). It is the
    # interval of the sides at 2^0 times 2^600, and the 50-digit one
    mpmath = pytest.importorskip("mpmath")
    comp = VarianceComponents((0.5 * 2.0 ** 600, 0.1, 0.3 * 2.0 ** -600))
    cs = wald_ci("cre", Estimates(2.0 ** 300, 0.8 * 2.0 ** -300), comp, cre_config())
    unit = wald_ci("cre", Estimates(1.0, 0.8), VarianceComponents((0.5, 0.1, 0.3)),
                   cre_config())
    assert cs.kind == unit.kind == "interval"
    assert (cs.lo, cs.hi) == (math.ldexp(unit.lo, 600), math.ldexp(unit.hi, 600))
    assert (cs.lo, cs.hi) == (math.ldexp(-0.8270503903424489, 600),
                              math.ldexp(3.327050390342449, 600))
    mpmath.mp.dps = 50
    b_y, b_w = mpmath.mpf(2.0 ** 300), mpmath.mpf(0.8 * 2.0 ** -300)
    q_y, q_c, q_w = (mpmath.mpf(v) for v in comp.plain)
    tau = b_y / b_w
    radius = mpmath.mpf(Z) * mpmath.sqrt(q_y - 2 * tau * q_c + tau * tau * q_w) / b_w
    for got, want in ((cs.lo, tau - radius), (cs.hi, tau + radius)):
        assert abs(mpmath.mpf(got) - want) <= 1e-15 * abs(want), (got, want)


@pytest.mark.parametrize("method", [wald_ci, far_set])
def test_rem_sets_of_far_apart_sides_are_the_unit_sets_scaled(method):
    # the y side times 2^260 and the w side times 2^-260: the squared
    # correlation's quadratics at the ratio (2^520 times the unit one)
    # overflowed and the mixture quantile raised "rho must be in [0, 1]";
    # on their common scale the sets are the unit sets times 2^520
    cfg = AnalysisConfig(design=DesignSpec.rem(10, p_a=0.1, k=2))

    def sides(u):
        triples = ((0.5, 0.1, 0.3), (0.4, 0.08, 0.25), (0.1, 0.02, 0.05))
        comp = VarianceComponents(*((math.ldexp(v_y, 2 * u), c, math.ldexp(v_w, -2 * u))
                                    for v_y, c, v_w in triples), k=2)
        return Estimates(math.ldexp(1.0, u), math.ldexp(0.8, -u)), comp

    unit, scaled = method("rem", *sides(0), cfg), method("rem", *sides(260), cfg)
    assert unit.kind == scaled.kind == ("interval" if method is wald_ci else "two_rays")
    assert (scaled.lo, scaled.hi) == (math.ldexp(unit.lo, 520), math.ldexp(unit.hi, 520))


def test_far_set_of_far_apart_sides_matches_a_50_digit_solve():
    # a y side near 1e300 and a w side near 1e-10: one shared scale pushed
    # the w side's form below the subnormals and gave a right ray; the set
    # is two rays at about -+7.2155e299
    mpmath = pytest.importorskip("mpmath")
    cs = far_set("cre", Estimates(1e300, 1e-10), VarianceComponents((1.0, 0.1, 0.5)),
                 cre_config())
    mpmath.mp.dps = 50
    b_y, b_w, crit = mpmath.mpf(1e300), mpmath.mpf(1e-10), mpmath.mpf(Z)
    q_y, q_c, q_w = mpmath.mpf(1.0), mpmath.mpf(0.1), mpmath.mpf(0.5)
    a = b_w ** 2 - crit ** 2 * q_w
    b = -2 * (b_y * b_w - crit ** 2 * q_c)
    c = b_y ** 2 - crit ** 2 * q_y
    root = mpmath.sqrt(b * b - 4 * a * c)
    lo, hi = sorted(((-b + root) / (2 * a), (-b - root) / (2 * a)))
    assert a < 0 and cs.kind == "two_rays"
    for got, want in ((cs.lo, lo), (cs.hi, hi)):
        assert abs(mpmath.mpf(got) - want) <= 1e-13 * abs(want), (got, want)
    assert float(lo) == pytest.approx(-7.2155e299, rel=1e-4)
    assert float(hi) == pytest.approx(7.2155e299, rel=1e-4)
