"""analyze_file's group pass against the one-row path, stratum for stratum.

``analyze_file`` validates the strata by arm-size group, computes their
families by one ``estimation.row_families`` call per group (each stratum a
population of its own), scores all of them with one ``score_rows`` call
and hands each stratum its row to ``analyze_stratum``. Handed nothing,
``analyze_stratum`` runs ``validate``, the one-row
``summarize``/``*_components`` calls or, adjusted, a one-row
``row_families`` call, and the one-row
``wald_ci``/``far_set``/``first_stage_test``/``f_screen`` calls of the
same kernels. The report must be the same to the bit either way.
"""
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from latekit import cli, estimation, io
from latekit.data_model import CENTERING_TOL, Y_SPREAD_RANGE, Dataset, check_rows, validate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DESIGNS = {"cre": {}, "rem": {"design": "rem", "p_a": 0.1},
           "ehw": {"adjustment": "ehw"}, "hc2": {"adjustment": "hc2"}}


def _reports(monkeypatch, path, options):
    """The report with the group pass, the report of one-row calls, and how
    many times each called summarize."""
    one_row, summarize = io.analyze_stratum, io.summarize
    reports, calls = [], []
    for grouped in (True, False):
        count = []
        with monkeypatch.context() as mp:
            mp.setattr(io, "summarize", lambda *a: count.append(1) or summarize(*a))
            if not grouped:
                mp.setattr(io, "analyze_stratum",
                           lambda ds, methods, config, offsets=(), moments=None:
                           one_row(ds, methods, config, offsets))
            reports.append(io.analyze_file(str(path), **options))
        calls.append(len(count))
    return reports, calls


def _assert_bit_equal(got, want):
    # repr round-trips every double, so equal text is equal bits
    assert len(got["strata"]) == len(want["strata"])
    for new, old in zip(got["strata"], want["strata"]):
        assert json.dumps(new) == json.dumps(old), old["stratum"]
    assert json.dumps(got) == json.dumps(want)


def _write(path, strata):
    """A records file of ``(key, z, w, y, x)`` strata."""
    lines = ["stratum,z,w,y,x1,x2"]
    for key, z, w, y, x in strata:
        lines += [f"{key},{a},{b},{c!r},{d!r},{e!r}"
                  for a, b, c, d, e in zip(z, w, y.tolist(), x[:, 0].tolist(),
                                           x[:, 1].tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


def _stratum(rng, key, n=12, n1=6):
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n1]] = 1
    w = ((rng.random(n) < 0.3) | (z == 1) & (rng.random(n) < 0.6)).astype(int)
    x = rng.standard_normal((n, 2))
    return [key, z, w, x @ [1.0, -0.5] + 2.0 * w + rng.standard_normal(n), x]


def _shared_size_strata(rng):
    """Strata of 12 rows, 6 treated (but the one-unit arm), ordinary ones
    between those that go wrong, so a row read at the wrong offset shows."""
    strata = [_stratum(rng, f"plain{i}") for i in range(6)]
    within = _stratum(rng, "within_singular")
    x = within[4]
    x[within[1] == 1, 1] = 2.0 * x[within[1] == 1, 0]
    collinear = _stratum(rng, "collinear")
    collinear[4][:, 1] = collinear[4][:, 0] + 1.0
    constant = _stratum(rng, "constant_receipt")
    constant[2][:] = 1
    # no unit takes the treatment and the outcome gap is far from zero:
    # the inversion is empty
    zero = _stratum(rng, "zero_first_stage")
    zero[2][:] = 0
    zero[3] = 100.0 * zero[1] + 0.01 * rng.standard_normal(12)
    one_unit = _stratum(rng, "one_unit_arm", n1=1)
    # y on a scale validate rejects, and covariates whose covariance
    # overflows: moments no step reads
    huge = _stratum(rng, "huge")
    huge[3], huge[4] = huge[3] * 1e200, huge[4] * 1e200
    return [strata[0], within, strata[1], collinear, strata[2], constant, strata[3],
            zero, strata[4], one_unit, huge, strata[5]]


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("seed", [20240901, 777])
def test_groups_match_one_row_calls_on_the_benchmark_input(tmp_path, monkeypatch, seed,
                                                            design):
    with monkeypatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    path = tmp_path / "strata.csv"
    workloads.write_strata_csv(path, seed)
    (got, want), calls = _reports(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    # the 196 analysable strata; the 4 of 3 rows are skipped by validate
    assert calls == ([0, 196] if design in ("cre", "rem") else [0, 0])
    assert sum("skipped" in e for e in got["strata"]) == 4



def test_groups_match_one_row_calls_when_a_rejected_stratum_overflows(tmp_path,
                                                                     monkeypatch):
    # the first stratum's outcome is on a scale validate rejects and its
    # covariates overflow their covariance; numpy's eigvalsh may raise on
    # the overflowed matrix, and the group must not take the run down
    with monkeypatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    path = tmp_path / "strata.csv"
    workloads.write_strata_csv(path, 20240901)
    header, *lines = path.read_text().splitlines()
    first = lines[0].split(",")[0]
    for i, line in enumerate(lines):
        key, z, w, *cells = line.split(",")
        if key == first:
            lines[i] = ",".join([key, z, w, *(repr(float(c) * 1e200) for c in cells)])
    path.write_text("\n".join([header, *lines]) + "\n")
    (got, want), _ = _reports(monkeypatch, path, DESIGNS["rem"])
    _assert_bit_equal(got, want)
    assert got["strata"][0]["skipped"].startswith("y varies on a scale")


_ALWAYS = {"zero_first_stage": "empty confidence inversion with zero first stage",
           "one_unit_arm": "n1 < 2", "huge": "y varies on a scale"}
_SHARED_REASONS = {
    "cre": _ALWAYS,
    "rem": {**_ALWAYS,
            "within_singular": "within-arm covariate covariance is numerically singular",
            "collinear": "covariate covariance is numerically singular"},
}


@pytest.mark.parametrize("design", DESIGNS)
def test_groups_match_one_row_calls_on_strata_of_one_size(tmp_path, monkeypatch, design):
    path = _write(tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))
    (got, want), calls = _reports(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    skips = {e["stratum"]: e["skipped"] for e in got["strata"] if "skipped" in e}
    if design in _SHARED_REASONS:
        reasons = _SHARED_REASONS[design]
        assert set(skips) == set(reasons)
        assert all(skips[key].startswith(reason) for key, reason in reasons.items())
        assert calls == [0, 10]  # the strata validate accepts
        constant = next(e for e in got["strata"] if e["stratum"] == "constant_receipt")
        assert constant["tau_w_hat"] == 0.0 and "skipped" not in constant


def test_a_group_whose_factoring_raises_goes_one_row_at_a_time(tmp_path, monkeypatch):
    # numpy's eigvalsh raises on some covariances that overflowed to
    # infinities; the one-row path then raises, or skips, as it always did
    def raises(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = _write(tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))
    # the group pass's full covariances, which the one-row path factors by
    # design.Covariates instead
    inverses = estimation.spd_inverses
    monkeypatch.setattr(estimation, "spd_inverses", lambda mats, what: (
        raises() if what == "covariate covariance" else inverses(mats, what)))
    (got, want), calls = _reports(monkeypatch, path, DESIGNS["rem"])
    _assert_bit_equal(got, want)
    assert calls == [10, 10]


@pytest.mark.parametrize("design", DESIGNS)
def test_groups_match_one_row_calls_when_every_size_differs(tmp_path, monkeypatch, design):
    rng = np.random.default_rng(9)
    strata = [_stratum(rng, f"s{i}", n=10 + i, n1=5 + i % 4) for i in range(24)]
    path = _write(tmp_path / "sizes.csv", strata)
    (got, want), calls = _reports(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    assert not any("skipped" in e for e in got["strata"])
    assert calls == ([0, 24] if design in ("cre", "rem") else [0, 0])


# the one-row steps the group pass replaces with one score_rows call
_CHAIN = ("wald_ci", "far_set", "first_stage_test", "f_screen")


def _chain_calls(monkeypatch, path, options):
    """_reports' two reports, and how many times each of the one-row steps
    ran with the group pass and without it."""
    calls = {name: [0, 0] for name in _CHAIN}
    grouped = io.analyze_stratum
    with monkeypatch.context() as mp:
        for name in _CHAIN:
            def counted(*args, _name=name, _call=getattr(io, name)):
                # _reports rebinds analyze_stratum for its one-row pass
                calls[_name][io.analyze_stratum is not grouped] += 1
                return _call(*args)
            mp.setattr(io, name, counted)
        reports, _ = _reports(monkeypatch, path, options)
    return reports, calls


def _benchmark_input(tmp_path, monkeypatch, seed=20240901):
    with monkeypatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    path = tmp_path / "strata.csv"
    workloads.write_strata_csv(path, seed)
    return path


@pytest.mark.parametrize("design", DESIGNS)
def test_the_group_pass_runs_no_scalar_chain(tmp_path, monkeypatch, design):
    path = _benchmark_input(tmp_path, monkeypatch)
    (got, want), calls = _chain_calls(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    assert calls == {name: [0, 196] for name in _CHAIN}


_INPUTS = {"benchmark": _benchmark_input,
           "shared_size": lambda tmp_path, _: _write(
               tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))}


@pytest.mark.parametrize("methods", [("far", "wald_f10"), ("wald_f10",), ("ts_f10", "wald")])
@pytest.mark.parametrize("design", ["cre", "rem"])
@pytest.mark.parametrize("data", _INPUTS)
def test_groups_match_one_row_calls_for_a_subset_of_methods(tmp_path, monkeypatch, data,
                                                            design, methods):
    # a stored error is raised at its step only: without "far", the stratum
    # with no receipt is not skipped, and with it the skip comes at its turn
    path = _INPUTS[data](tmp_path, monkeypatch)
    (got, want), _ = _reports(monkeypatch, path, {**DESIGNS[design], "methods": methods})
    _assert_bit_equal(got, want)
    assert all(list(e["methods"]) == list(methods) for e in got["strata"] if "methods" in e)
    if data == "shared_size":
        zero = next(e for e in got["strata"] if e["stratum"] == "zero_first_stage")
        assert ("skipped" in zero) == ("far" in methods or "ts_f10" in methods)


def test_overflowed_covariances_skip_their_strata(tmp_path, monkeypatch):
    # x1-x3 times 1e200 overflow every covariate covariance to infinities:
    # each stratum with two units per arm is skipped as singular, and the
    # run goes on
    path = _benchmark_input(tmp_path, monkeypatch)
    header, *lines = path.read_text().splitlines()
    assert header == "stratum,z,w,y,x1,x2,x3"
    lines = [",".join([*cells[:4], *(repr(float(c) * 1e200) for c in cells[4:])])
             for cells in (line.split(",") for line in lines)]
    path.write_text("\n".join([header, *lines]) + "\n")
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--input", str(path), "--out", str(out),
                     "--design", "rem", "--pa", "0.1"]) == 0
    skips = [e["skipped"] for e in json.loads(out.read_text())["strata"]]
    assert skips.count("covariate covariance is numerically singular") == 196
    assert all(s.startswith(("n1 < 2", "n0 < 2")) for s in skips if "covariance" not in s)
    (got, want), _ = _reports(monkeypatch, path, DESIGNS["rem"])
    _assert_bit_equal(got, want)


def _edge_rows():
    """Datasets of 4 units whose y spread is exactly each end of
    Y_SPREAD_RANGE or one ulp outside it, then whose first covariate mean is
    exactly CENTERING_TOL or one ulp above it."""
    lo, hi = Y_SPREAD_RANGE
    z, w = np.array([1, 1, 0, 0]), np.array([0, 1, 0, 1])
    for s in (lo, np.nextafter(lo, 0.0), hi, np.nextafter(hi, np.inf)):
        yield Dataset(z=z, w=w, y=np.array([s, -s, 0.0, 0.0]), x=np.zeros((4, 2)))
    for m in (CENTERING_TOL, np.nextafter(CENTERING_TOL, 1.0)):
        x = np.zeros((4, 2))
        x[:, 0] = m
        yield Dataset(z=z, w=w, y=np.array([1.0, -1.0, 0.0, 0.0]), x=x)


def test_check_rows_matches_validate_at_the_edges():
    rows = list(_edge_rows())
    fails, *_ = check_rows(*(np.stack([getattr(ds, a) for ds in rows]) for a in "zwyx"),
                           np.zeros((len(rows), 2)))
    reports = [validate(ds) for ds in rows]
    passed = (~np.logical_or.reduce(fails)).tolist()
    assert passed == [not r for r in reports] == [True, False, True, False, True, False]
    assert reports[1][0].startswith("y varies on a scale") and reports[3][0].startswith(
        "y varies on a scale")
    assert reports[5] == [f"covariates not centered: columns [0] have means "
                          f"{[float(np.nextafter(CENTERING_TOL, 1.0))]}"]


def test_check_rows_gives_each_stacked_row_its_one_row_bits(tmp_path, monkeypatch):
    # the spread and covariate means of every group of the benchmark input
    strata = io.read_records(str(_benchmark_input(tmp_path, monkeypatch)))
    groups: dict = {}
    for ds, means in map(io._stratum_dataset, strata):
        groups.setdefault((ds.n, ds.n1), []).append((ds, means))
    assert len(groups) > 30
    for group in groups.values():
        fails, *rest = check_rows(*(np.stack([getattr(ds, a) for ds, _ in group])
                                    for a in "zwyx"), np.stack([means for _, means in group]))
        for r, (ds, means) in enumerate(group):
            one_fails, *one_rest = check_rows(ds.z[None], ds.w[None], ds.y[None], ds.x[None],
                                              means[None])
            assert all(np.array_equal(a[r], b[0])
                       for a, b in zip([*fails, *rest], [*one_fails, *one_rest]))
