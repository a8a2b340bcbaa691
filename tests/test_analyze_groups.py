"""analyze_file's group pass against the one-row path, stratum for stratum.

``analyze_file`` computes the moments and variance families of every
unadjusted stratum by arm-size group and hands each stratum its own to
``analyze_stratum``. Handed nothing, ``analyze_stratum`` computes them by
the one-row ``summarize`` and ``*_components`` calls, as it did before the
group pass. The report must be the same to the bit either way.
"""
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from latekit import io

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
    monkeypatch.setattr(io, "spd_inverses", raises)
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
