import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chi2

from latekit import design as design_mod
from latekit import simulation
from latekit.cli import main
from latekit.data_model import Dataset, DesignSpec, center_covariates
from latekit.design import (
    AssignmentVector,
    Covariates,
    _gathered_distances,
    draw_assignment,
    mahalanobis,
)
from latekit.exceptions import DegenerateCovariatesError
from latekit.mixture import threshold_from_pa
from oracles import every_assignment


def brute_force_mahalanobis(x, z):
    """Direct matrix arithmetic, no shared code with the implementation."""
    n = len(z)
    n1 = int(np.sum(z))
    n0 = n - n1
    xc = x - x.mean(axis=0)
    sxx = np.zeros((x.shape[1], x.shape[1]))
    for row in xc:
        sxx += np.outer(row, row)
    sxx /= n - 1
    diff = x[np.asarray(z) == 1].mean(axis=0) - x[np.asarray(z) == 0].mean(axis=0)
    return n1 * n0 / n * float(diff @ np.linalg.inv(sxx) @ diff)


def test_mahalanobis_zero_when_arm_means_equal():
    x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    assert mahalanobis(x, np.array([1, 1, 0, 0])) == pytest.approx(0.0, abs=1e-14)


def test_mahalanobis_known_value():
    x = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    z = np.array([1, 1, 0, 0])
    m = mahalanobis(x, z)
    assert m == pytest.approx(2.4, abs=1e-12)
    assert m == pytest.approx(brute_force_mahalanobis(x, z), abs=1e-12)


def test_mahalanobis_matches_brute_force_random(rng):
    for _ in range(20):
        n, k = 16, 3
        x = rng.standard_normal((n, k))
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[: n // 2]] = 1
        assert mahalanobis(x, z) == pytest.approx(brute_force_mahalanobis(x, z),
                                                  rel=1e-10)


def test_mahalanobis_label_swap_symmetry(rng):
    x = rng.standard_normal((12, 2))
    z = np.zeros(12, dtype=int)
    z[rng.permutation(12)[:6]] = 1
    assert mahalanobis(x, z) == pytest.approx(mahalanobis(x, 1 - z), rel=1e-12)


def test_mahalanobis_rejects_degenerate():
    x = np.column_stack([np.arange(8.0), 2 * np.arange(8.0)])
    with pytest.raises(DegenerateCovariatesError):
        mahalanobis(x, np.array([1, 1, 1, 1, 0, 0, 0, 0]))


def test_threshold_closed_form_k2():
    assert threshold_from_pa(0.5, 2) == pytest.approx(-2 * math.log(0.5), abs=1e-9)


def test_threshold_k5_p01():
    assert threshold_from_pa(0.01, 5) == pytest.approx(0.5542980767, abs=1e-8)


def test_threshold_matches_scipy_grid():
    for k in (1, 2, 3, 5, 10):
        for p in (0.001, 0.01, 0.1, 0.5, 0.9, 0.999):
            assert threshold_from_pa(p, k) == pytest.approx(chi2.ppf(p, k), rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.2])
def test_threshold_rejects_bad_pa(bad):
    with pytest.raises(ValueError):
        threshold_from_pa(bad, 3)


def test_cre_subsets_uniform():
    # all 6 treated pairs of 4 units should be equally likely
    rng = np.random.default_rng(7)
    spec = DesignSpec.cre(n1=2)
    x = np.zeros((4, 0))
    counts = {frozenset(c): 0 for c in combinations(range(4), 2)}
    draws = 60_000
    for _ in range(draws):
        z = draw_assignment(spec, x, rng).z
        counts[frozenset(np.nonzero(z)[0].tolist())] += 1
    expected = draws / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    # chi-square with 5 dof, 0.1% critical value
    assert stat < chi2.ppf(0.999, 5)


def test_rem_infinite_threshold_behaves_as_cre(rng):
    x = rng.standard_normal((10, 2))
    x -= x.mean(axis=0)
    spec = DesignSpec(kind="rem", n1=5, a=math.inf)
    for _ in range(10):
        draw = draw_assignment(spec, x, rng)
        assert draw.accepted_after == 1
        assert draw.z.sum() == 5


def test_rem_accepted_draws_satisfy_threshold(rng):
    x = rng.standard_normal((30, 3))
    x -= x.mean(axis=0)
    spec = DesignSpec.rem(n1=15, p_a=0.05, k=3)
    for _ in range(50):
        draw = draw_assignment(spec, x, rng)
        assert draw.z.sum() == 15
        assert mahalanobis(x, draw.z) <= spec.a + 1e-12
        assert draw.accepted_after >= 1


def test_rem_acceptance_rate_smoke(rng):
    # coarse check at modest n; the tight asymptotic check is in acceptance
    x = rng.standard_normal((300, 5))
    x -= x.mean(axis=0)
    spec = DesignSpec.rem(n1=150, p_a=0.1, k=5)
    attempts = sum(draw_assignment(spec, x, rng).accepted_after for _ in range(300))
    rate = 300 / attempts
    assert 0.05 < rate < 0.2


@pytest.mark.parametrize("n", [10, 12])
def test_rem_draws_are_uniform_on_the_acceptance_region(n):
    # an accepted draw is uniform on the assignments within the threshold,
    # and the candidates it took are geometric with the region's share
    rng = np.random.default_rng(20240901)
    cov = Covariates(rng.standard_normal((n, 2)))
    spec = DesignSpec.rem(n1=n // 2, p_a=0.2, k=2)
    zs, treated = every_assignment(n, n // 2)
    inside = _gathered_distances(cov, treated) <= spec.a
    region = {zs[i].tobytes(): 0 for i in np.flatnonzero(inside)}
    assert 10 <= len(region) < len(zs) // 2
    draws, attempts = 40 * len(region), 0
    for _ in range(draws):
        draw = draw_assignment(spec, cov, rng)
        assert draw.z.tobytes() in region, f"accepted {draw.z} outside the region"
        region[draw.z.tobytes()] += 1
        attempts += draw.accepted_after
    expected = draws / len(region)
    stat = sum((c - expected) ** 2 / expected for c in region.values())
    assert stat < chi2.ppf(0.999, len(region) - 1)
    share = len(region) / len(zs)
    mean_attempts, sd = 1.0 / share, math.sqrt(1.0 - share) / share
    assert abs(attempts / draws - mean_attempts) < 4.5 * sd / math.sqrt(draws)


def test_draw_reproducible_from_seed():
    x = np.random.default_rng(3).standard_normal((20, 2))
    x -= x.mean(axis=0)
    spec = DesignSpec.rem(n1=10, p_a=0.2, k=2)
    d1 = draw_assignment(spec, x, np.random.default_rng(42))
    d2 = draw_assignment(spec, x, np.random.default_rng(42))
    assert np.array_equal(d1.z, d2.z)
    assert d1.accepted_after == d2.accepted_after


def test_rejection_cap_raises(rng, monkeypatch):
    import latekit.design as design_mod
    from latekit.exceptions import AcceptanceRegionError

    monkeypatch.setattr(design_mod, "REJECTION_CAP", 64)
    x = rng.standard_normal((40, 2))
    x -= x.mean(axis=0)
    spec = DesignSpec(kind="rem", n1=20, a=1e-9)  # essentially unreachable
    with pytest.raises(AcceptanceRegionError, match="acceptance region too small"):
        draw_assignment(spec, x, rng)


def test_draw_accepts_dataset_argument(rng):
    ds = Dataset(z=np.array([1, 1, 0, 0]), w=np.zeros(4, dtype=int),
                 y=np.zeros(4), x=np.array([[-3.0], [-1.0], [1.0], [3.0]]))
    draw = draw_assignment(DesignSpec.cre(2), ds, rng)
    assert isinstance(draw, AssignmentVector)
    assert draw.z.sum() == 2


def _reference_distances(x, chol, treated):
    """Mahalanobis imbalance of each row of treated indices by gathering the
    treated rows and solving with the factor, batch by batch."""
    n, n1 = len(x), treated.shape[1]
    n0 = n - n1
    s1 = x[treated].sum(axis=1)
    diff = s1 / n1 - (x.sum(axis=0) - s1) / n0
    w = np.linalg.solve(chol, diff.T)
    return n1 * n0 / n * np.einsum("ij,ij->j", w, w)


def reference_draw(spec, x, rng):
    """Rejection sampling one candidate batch at a time, each candidate's
    distance by gathering its treated rows: the draw the mask path must
    reproduce exactly."""
    x = np.asarray(x, dtype=float)
    n, n1 = len(x), spec.n1
    xc = x - x.mean(axis=0)
    chol = np.linalg.cholesky(xc.T @ xc / (n - 1))
    attempts = 0
    while True:
        keys = rng.random((128, n))
        treated = np.argpartition(keys, n1 - 1, axis=1)[:, :n1]
        hits = np.nonzero(_reference_distances(x, chol, treated) <= spec.a)[0]
        if hits.size:
            z = np.zeros(n, dtype=np.int64)
            z[treated[hits[0]]] = 1
            return z, attempts + int(hits[0]) + 1
        attempts += 128


def _assert_same_draw(spec, x, make_rng, covariates=None):
    draw = draw_assignment(spec, x if covariates is None else covariates, make_rng())
    z, accepted_after = reference_draw(spec, x, make_rng())
    assert np.array_equal(draw.z, z)
    assert draw.accepted_after == accepted_after
    assert draw.z.sum() == spec.n1
    return draw


@pytest.mark.parametrize("seed", [20240901, 777])
def test_rem_draws_match_reference_on_acceptance_cells(seed):
    # the six acceptance ReM cells, every draw of 200 reps, one shared
    # Covariates per cell as the study passes it
    cfg = simulation.StudyConfig(n=200, tau_w=(0.05, 0.1, 0.15, 0.2, 0.3, 0.5), design="rem",
                                 p_a=0.01, reps=200, seed=seed)
    spec = DesignSpec.rem(100, p_a=0.01, k=5)
    for cell, tau_w in enumerate(cfg.tau_w):
        pop = simulation._population_for_cell(cfg, cell, tau_w)
        covariates = Covariates(pop.x)
        for rep in range(cfg.reps):
            _assert_same_draw(spec, pop.x, lambda: np.random.default_rng((seed, cell, 1 + rep)),
                              covariates)


@pytest.mark.parametrize("n,n1,k", [(40, 20, 1), (60, 30, 2), (100, 50, 5), (60, 20, 2),
                                    (60, 20, 5), (60, 45, 1)])
def test_rem_draws_match_reference_for_covariate_counts_and_arm_sizes(n, n1, k):
    x = np.random.default_rng(n + n1 + k).standard_normal((n, k))
    spec = DesignSpec.rem(n1, p_a=0.02, k=k)
    for rep in range(60):
        _assert_same_draw(spec, x, lambda: np.random.default_rng((k, rep)))


def _first_batch_distances(spec, x, seed):
    rng = np.random.default_rng(seed)
    keys = rng.random((128, len(x)))
    treated = np.argpartition(keys, spec.n1 - 1, axis=1)[:, :spec.n1]
    return _reference_distances(x, Covariates(x).chol, treated)


@pytest.fixture
def gathered_batches(monkeypatch):
    """Counts the batches the draw decides by the gathered arithmetic."""
    calls = []
    gathered = design_mod._gathered_distances

    def counted(cov, treated):
        calls.append(len(treated))
        return gathered(cov, treated)

    monkeypatch.setattr(design_mod, "_gathered_distances", counted)
    return calls


def _covariates_of_kind(kind):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((60, 3))
    if kind == "centred":
        return x - x.mean(axis=0)
    if kind == "offset":  # far from zero: the gathered sums lose digits
        return x + np.array([1e6, -3e4, 50.0])
    # nearly collinear: reciprocal condition about 1e-10
    return np.column_stack([x[:, :2], x[:, 0] - x[:, 1] + 1e-5 * x[:, 2]])


@pytest.mark.parametrize("kind", ["centred", "offset", "collinear"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_rem_draw_decides_a_threshold_candidate_as_the_reference(gathered_batches, kind,
                                                                 seed):
    # the threshold set to a candidate's exact reference distance accepts it,
    # and the next float below rejects it; the mask distance cannot tell
    # these apart, so the gathered arithmetic decides
    x = _covariates_of_kind(kind)
    m = _first_batch_distances(DesignSpec(kind="rem", n1=30, a=1.0), x, seed)
    j = int(np.argmin(m))
    for a, accepted in ((m[j], True), (np.nextafter(m[j], 0.0), False)):
        draw = _assert_same_draw(DesignSpec(kind="rem", n1=30, a=float(a)), x,
                                 lambda: np.random.default_rng(seed))
        assert (draw.accepted_after == j + 1) == accepted
    assert len(gathered_batches) >= 2


class TiedKeys:
    """A generator whose uniform keys tie at the n1-th smallest of every
    row, so the n1 smallest are not one set; argpartition picks one."""

    def __init__(self, seed, n1):
        self.rng = np.random.default_rng(seed)
        self.n1 = n1

    def random(self, shape):
        keys = self.rng.random(shape)
        order = np.argsort(keys, axis=1)
        rows = np.arange(shape[0])
        keys[rows, order[:, self.n1]] = keys[rows, order[:, self.n1 - 1]]
        return keys


def test_rem_draw_with_tied_keys_matches_reference(gathered_batches):
    x = np.random.default_rng(3).standard_normal((40, 2))
    spec = DesignSpec.rem(20, p_a=0.05, k=2)
    for seed in range(20):
        _assert_same_draw(spec, x, lambda: TiedKeys(seed, spec.n1))
    assert len(gathered_batches) >= 20


class RoundedTogether(TiedKeys):
    """A generator whose n1-th and (n1 + 1)-th smallest keys of every row
    are distinct doubles that round to one float32, so only the float64
    keys tell the treated set."""

    def random(self, shape):
        keys = self.rng.random(shape)
        order = np.argsort(keys, axis=1)
        rows = np.arange(shape[0])
        low = keys[rows, order[:, self.n1 - 1]].astype(np.float32).astype(float)
        keys[rows, order[:, self.n1 - 1]] = low
        keys[rows, order[:, self.n1]] = np.nextafter(low, 1.0)
        sorted_keys = np.sort(keys, axis=1)
        assert np.all(np.diff(sorted_keys, axis=1) > 0.0)
        assert np.array_equal(np.argsort(keys, axis=1)[:, :self.n1], order[:, :self.n1])
        assert np.all(sorted_keys[:, self.n1 - 1].astype(np.float32)
                      == sorted_keys[:, self.n1].astype(np.float32))
        return keys


def test_rem_draw_with_keys_tied_only_in_float32_matches_reference(gathered_batches):
    x = np.random.default_rng(3).standard_normal((40, 2))
    spec = DesignSpec.rem(20, p_a=0.05, k=2)
    for seed in range(20):
        _assert_same_draw(spec, x, lambda: RoundedTogether(seed, spec.n1))
    assert len(gathered_batches) >= 20


class ArrangedKeys:
    """A generator that hands out fixed key rows in order, however many rows
    each call asks for."""

    def __init__(self, rows):
        self.flat = rows.ravel()
        self.used = 0

    def random(self, shape):
        size = math.prod(shape)
        keys = self.flat[self.used:self.used + size].reshape(shape)
        self.used += size
        return keys.copy()


def _arranged_stream(spec, x, position, rows=256, seed=4):
    """Key rows of a seeded stream, moved so that the candidate with the
    second smallest reference distance sits at 0-based row ``position`` and
    the smallest right after it; the three smallest distances, ascending."""
    keys = np.random.default_rng(seed).random((rows, len(x)))
    treated = np.argpartition(keys, spec.n1 - 1, axis=1)[:, :spec.n1]
    m = _reference_distances(x, Covariates(x).chol, treated)
    order = np.argsort(m)
    rest = [i for i in range(rows) if i not in order[:2]]
    arranged = rest[:position] + [order[1], order[0]] + rest[position:]
    return keys[arranged], m[order[:3]]


@pytest.mark.parametrize("position", [63, 64, 127, 128])
@pytest.mark.parametrize("threshold", ["between_2nd_3rd", "at_2nd", "below_2nd",
                                       "between_1st_2nd"])
def test_rem_draw_accepts_at_block_edges_as_the_reference(gathered_batches, position,
                                                          threshold):
    # the second smallest distance at candidate position + 1 and the
    # smallest at position + 2: accepts at 64, 65, 128, 129 and the next,
    # decided by the mask, or by the gathered arithmetic at a threshold
    # equal to a candidate's distance, in the first block or a later one
    x = _covariates_of_kind("centred")
    spec = DesignSpec(kind="rem", n1=30, a=1.0)
    rows, (m1, m2, m3) = _arranged_stream(spec, x, position)
    a, at = {"between_2nd_3rd": ((m2 + m3) / 2, position + 1),
             "at_2nd": (m2, position + 1),
             "below_2nd": (np.nextafter(m2, 0.0), position + 2),
             "between_1st_2nd": ((m1 + m2) / 2, position + 2)}[threshold]
    spec = DesignSpec(kind="rem", n1=30, a=float(a))
    draw = _assert_same_draw(spec, x, lambda: ArrangedKeys(rows))
    assert draw.accepted_after == at
    if threshold.startswith("between"):
        assert not gathered_batches  # the mask decided every candidate
    else:
        assert len(gathered_batches) == 1
        assert gathered_batches == [64]  # the candidate's own block


@pytest.mark.parametrize("position,accepted", [(99, True), (100, False)])
def test_rem_draw_honours_a_cap_that_is_not_a_whole_block(monkeypatch, position, accepted):
    # at a cap of 100 the second block is cut to 36 rows: the 100th
    # candidate is still drawn, and the 101st is not
    from latekit.exceptions import AcceptanceRegionError

    monkeypatch.setattr(design_mod, "REJECTION_CAP", 100)
    x = _covariates_of_kind("centred")
    spec = DesignSpec(kind="rem", n1=30, a=1.0)
    rows, (_, m2, m3) = _arranged_stream(spec, x, position)
    spec = DesignSpec(kind="rem", n1=30, a=float((m2 + m3) / 2))
    stream = ArrangedKeys(rows)
    if accepted:
        draw = draw_assignment(spec, x, stream)
        z, accepted_after = reference_draw(spec, x, ArrangedKeys(rows))
        assert np.array_equal(draw.z, z)
        assert draw.accepted_after == accepted_after == 100
    else:
        with pytest.raises(AcceptanceRegionError, match="in 100 attempts"):
            draw_assignment(spec, x, stream)
    assert stream.used == 100 * len(x)


def test_rem_draw_consumes_whole_blocks_of_the_generator():
    # a draw accepted at candidate j leaves the generator ceil(j / 64) * 64 * n
    # doubles into its stream, so a generator shared by later draws gives
    # them other (equally valid) assignments than at another block size
    x = np.random.default_rng(9).standard_normal((60, 2))
    spec = DesignSpec.rem(30, p_a=0.01, k=2)
    block = 64
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        j = draw_assignment(spec, x, rng).accepted_after
        seen.add(j > block)
        offset = math.ceil(j / block) * block * len(x)
        assert rng.random() == np.random.default_rng(seed).random(offset + 1)[offset]
    assert seen == {False, True}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_design_command_rem_draw_is_the_reference_draw(tmp_path, seed):
    # one draw from a fresh generator: the block size does not move it
    x_raw = np.random.default_rng(21).standard_normal((40, 2))
    f = tmp_path / "x.csv"
    f.write_text("x1,x2\n" + "".join(f"{a:.6f},{b:.6f}\n" for a, b in x_raw))
    out = tmp_path / "d.csv"
    assert main(["design", "--input", str(f), "--mode", "rem", "--pa", "0.01",
                 "--seed", str(seed), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    x, _ = center_covariates(np.round(x_raw, 6))
    z, accepted_after = reference_draw(DesignSpec.rem(20, p_a=0.01, k=2), x,
                                       np.random.default_rng(seed))
    assert lines[3] == f"# attempts={accepted_after}"
    assert [int(line.split(",")[1]) for line in lines[5:]] == z.tolist()


@pytest.mark.parametrize("z,message", [
    (np.zeros(6, dtype=int), "both arms must be non-empty: 0 of 6"),
    (np.ones(6, dtype=int), "both arms must be non-empty: 6 of 6"),
    (np.array([2, 2, 2, 0, 0, 0]), "z must be 0/1"),
    (np.array([1, 1, 1, 0, 0, 0, 1]), r"z must hold one entry per row of x: got shape \(7,\)"),
    (np.array([1, 1, 0, 0, 0]), r"got shape \(5,\) for 6 rows"),
    (np.array([[1, 1, 1, 0, 0, 0]]), r"got shape \(1, 6\)"),
])
def test_mahalanobis_rejects_a_bad_assignment(z, message):
    x = np.array([[-3.0], [-1.0], [1.0], [3.0], [0.5], [-0.5]])
    with pytest.raises(ValueError, match=message):
        mahalanobis(x, z)


def test_one_dimensional_covariates_raise_naming_the_shape():
    # the balance metric needs an (n, K) matrix; a CRE draw reads no metric
    x = np.array([-3.0, -1.0, 1.0, 3.0])
    message = r"covariates must be an \(n, K\) matrix, got shape \(4,\)"
    with pytest.raises(ValueError, match=message):
        mahalanobis(x, np.array([1, 1, 0, 0]))
    with pytest.raises(ValueError, match=message):
        draw_assignment(DesignSpec.rem(2, a=1.0), x, np.random.default_rng(0))
    assert draw_assignment(DesignSpec.cre(2), x, np.random.default_rng(0)).z.sum() == 2
