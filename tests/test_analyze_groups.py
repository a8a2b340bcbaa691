"""analyze_file's one pass over a file against each stratum scored alone,
stratum for stratum.

``analyze_file`` scores every stratum of a file by ``io.score_groups``:
one ``check_rows`` call validates them, one ``estimation.row_families``
call builds their families (each stratum a population of its own) and one
``score_rows`` call scores them, and each stratum is handed its row by
``analyze_stratum``. Inside those calls only the floating-point reductions
are grouped, each by its own length: the y and covariate sums by stratum
size, the arm moments by arm size, so that every stratum keeps its one-row
bits. Handed nothing, ``analyze_stratum`` scores its stratum alone, as a
file of one stratum of ``score_groups``. The report must be the same to the
bit either way.
"""
import gc
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from latekit import cli, estimation, io
from latekit.data_model import (CENTERING_TOL, Y_SPREAD_RANGE, Dataset, center_covariates,
                                check_rows, validate)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DESIGNS = {"cre": {}, "rem": {"design": "rem", "p_a": 0.1},
           "ehw": {"adjustment": "ehw"}, "hc2": {"adjustment": "hc2"}}


def _reports(monkeypatch, path, options):
    """The report with the group pass, the report with each stratum scored
    alone, and how many row_families calls analyze_stratum made in each."""
    one_row, families = io.analyze_stratum, io.row_families
    reports, calls = [], []
    for grouped in (True, False):
        count, inside = [], []

        def stratum(ds, methods, config, offsets=(), scored=None, _grouped=grouped):
            inside.append(1)
            try:
                return one_row(ds, methods, config, offsets, scored if _grouped else None)
            finally:
                inside.pop()

        def counted(*args):
            if inside:  # a call analyze_stratum makes, not the group pass
                count.append(1)
            return families(*args)

        with monkeypatch.context() as mp:
            mp.setattr(io, "row_families", counted)
            mp.setattr(io, "analyze_stratum", stratum)
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
    assert calls == [0, 196]
    assert sum("skipped" in e for e in got["strata"]) == 4



def test_groups_match_one_row_calls_when_a_rejected_stratum_overflows(tmp_path,
                                                                     monkeypatch):
    # the first stratum's outcome is on a scale validate rejects and its
    # covariates overflow their covariance; it is skipped by validate, and
    # the run goes on
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
    assert calls == [0, 10]  # the strata validate accepts
    skips = {e["stratum"]: e["skipped"] for e in got["strata"] if "skipped" in e}
    if design in _SHARED_REASONS:
        reasons = _SHARED_REASONS[design]
        assert set(skips) == set(reasons)
        assert all(skips[key].startswith(reason) for key, reason in reasons.items())
        constant = next(e for e in got["strata"] if e["stratum"] == "constant_receipt")
        assert constant["tau_w_hat"] == 0.0 and "skipped" not in constant


def test_a_file_whose_factoring_raises_stops_after_one_family_call(tmp_path, monkeypatch):
    # numpy's stacked factorings run matrix by matrix, so a file's one
    # row_families call raises LinAlgError exactly when a stratum alone
    # would; the error ends analyze_file, and no stratum is built again
    def raises(mats, what):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = _write(tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))
    monkeypatch.setattr(estimation, "spd_inverses", raises)
    calls, families = [], io.row_families

    def counted(*args):
        calls.append(len(args[4]))  # the strata of the call
        return families(*args)
    monkeypatch.setattr(io, "row_families", counted)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        io.analyze_file(str(path), design="rem", p_a=0.1)
    assert calls == [10]  # the strata validate accepts


def test_a_row_whose_factoring_raises_stops_the_run(tmp_path, monkeypatch):
    # a LinAlgError is no skip reason: one that a row built alone raises is
    # raised at its stratum and ends analyze_file
    def raises(mats, what):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = _write(tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))
    monkeypatch.setattr(estimation, "spd_inverses", raises)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        io.analyze_file(str(path), **DESIGNS["rem"])


@pytest.mark.parametrize("design", DESIGNS)
def test_groups_match_one_row_calls_when_every_size_differs(tmp_path, monkeypatch, design):
    rng = np.random.default_rng(9)
    strata = [_stratum(rng, f"s{i}", n=10 + i, n1=5 + i % 4) for i in range(24)]
    path = _write(tmp_path / "sizes.csv", strata)
    (got, want), calls = _reports(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    assert not any("skipped" in e for e in got["strata"])
    assert calls == [0, 24]


def _one_row_score_calls(monkeypatch, path, options):
    """_reports' two reports, and how many one-row score_rows calls ran with
    the group pass and without it."""
    calls = [0, 0]
    grouped = io.analyze_stratum
    with monkeypatch.context() as mp:
        def counted(regime, tau_y, *args, _call=io.score_rows):
            # _reports rebinds analyze_stratum for its one-row pass
            calls[io.analyze_stratum is not grouped] += len(tau_y) == 1
            return _call(regime, tau_y, *args)
        mp.setattr(io, "score_rows", counted)
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
    (got, want), calls = _one_row_score_calls(monkeypatch, path, DESIGNS[design])
    _assert_bit_equal(got, want)
    assert calls == [0, 196]


def test_one_arm_moments_call_per_arm_size_and_one_factoring_per_covariance_kind(
        tmp_path, monkeypatch):
    # the benchmark input's 196 analysable strata have arms of 21 sizes, 40
    # to 60 units, a treated arm of one stratum sharing its size with the
    # control arm of another: one _arm_moments call per size takes every
    # arm's moments, under ReM with its covariate terms, and under ReM one
    # spd_inverses call factors every full covariance and one every
    # within-arm covariance
    path = _benchmark_input(tmp_path, monkeypatch)
    calls = {"_arm_moments": 0, "spd_inverses": 0}
    for name in calls:
        def counted(*args, _call=getattr(estimation, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(estimation, name, counted)
    io.analyze_file(str(path))
    assert calls == {"_arm_moments": 21, "spd_inverses": 0}
    calls["_arm_moments"] = 0
    io.analyze_file(str(path), **DESIGNS["rem"])
    assert calls == {"_arm_moments": 21, "spd_inverses": 2}


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


@pytest.mark.parametrize("design", DESIGNS)
def test_skipped_strata_leave_no_reference_cycle(tmp_path, design):
    # a skip is a stored error raised once; kept with its traceback, whose
    # frames reach the store, it would hold a whole pass's arrays in a cycle
    # until the garbage collector's next full run
    path = _write(tmp_path / "shared.csv", _shared_size_strata(np.random.default_rng(5)))
    report = io.analyze_file(str(path), **DESIGNS[design])
    assert sum("skipped" in e for e in report["strata"]) >= 3
    gc.collect()
    gc.disable()
    try:
        io.analyze_file(str(path), **DESIGNS[design])
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    fails, *_ = check_rows(*(np.concatenate([getattr(ds, a) for ds in rows]) for a in "zwyx"),
                           np.zeros((len(rows), 2)), [ds.n for ds in rows])
    reports = [validate(ds) for ds in rows]
    passed = (~np.logical_or.reduce(fails)).tolist()
    assert passed == [not r for r in reports] == [True, False, True, False, True, False]
    assert reports[1][0].startswith("y varies on a scale") and reports[3][0].startswith(
        "y varies on a scale")
    assert reports[5] == [f"covariates not centered: columns [0] have means "
                          f"{[float(np.nextafter(CENTERING_TOL, 1.0))]}"]


def _bounds(lengths):
    bounds = np.cumsum([0, *lengths]).tolist()
    return list(zip(bounds, bounds[1:]))


def test_check_rows_gives_each_stacked_row_its_one_row_bits(tmp_path, monkeypatch):
    # the spread and covariate means of every stratum of the benchmark input,
    # checked in one call over the file, against each stratum checked alone
    strata = io._centred(io.read_records(str(_benchmark_input(tmp_path, monkeypatch))))
    assert 30 < len(set(strata.lengths.tolist())) < len(strata.lengths)
    fails, *rest = check_rows(*strata)
    for r, (lo, hi) in enumerate(_bounds(strata.lengths)):
        one_fails, *one_rest = check_rows(*(a[lo:hi] for a in strata[:4]),
                                          strata.offsets[r:r + 1], [hi - lo])
        assert all(np.array_equal(a[r], b[0])
                   for a, b in zip([*fails, *rest], [*one_fails, *one_rest]))


def test_the_group_pass_centres_each_stratum_as_center_covariates(tmp_path, monkeypatch):
    # the file's outcomes and covariates are centred by one reduction per
    # stratum size; each stratum's covariates and means keep the bits of
    # center_covariates on the stratum's own rows, for one covariate (a
    # pairwise sum) or more, and its y less its own mean is its centred y
    strata = io.read_records(str(_benchmark_input(tmp_path, monkeypatch)))
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 5):
        for records in strata:
            records.x = rng.standard_normal((len(records.z), k)) * 10.0 ** rng.uniform(-3, 3, k)
        centred = io._centred(strata)
        for records, means, (lo, hi) in zip(strata, centred.offsets, _bounds(centred.lengths)):
            x, want = center_covariates(records.x)
            assert np.array_equal(centred.x[lo:hi], x) and np.array_equal(means, want)
            assert all(np.array_equal(getattr(centred, a)[lo:hi], getattr(records, a))
                       for a in "zw")
            assert np.array_equal(centred.y[lo:hi], records.y - records.y.sum() / (hi - lo))
