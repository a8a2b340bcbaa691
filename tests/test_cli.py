import csv
import importlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from latekit import cli, io, mixture
from latekit.cli import main
from latekit.io import ALL_METHODS, analyze_file, plot_data_rows, read_records
from latekit.simulation import StudyConfig, run_study


def write_basic_csv(path, rows, header="z,w,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def zero_take_up_file(tmp_path):
    # nobody takes treatment: first-stage difference is exactly zero
    f = tmp_path / "zero.csv"
    rows = [f"{z},0,{y}" for z, y in zip([1, 1, 1, 0, 0, 0],
                                         [1.0, 2.0, 3.0, 1.5, 2.5, 3.5])]
    write_basic_csv(f, rows)
    return f


@pytest.fixture
def covariate_file(tmp_path):
    rng = np.random.default_rng(8)
    n = 40
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:20]] = 1
    w = np.where(z == 1, (rng.random(n) < 0.7).astype(int), 0)
    x = rng.standard_normal((n, 2))
    y = x.sum(axis=1) + 2.0 * w + rng.standard_normal(n)
    f = tmp_path / "cov.csv"
    lines = [f"{z[i]},{w[i]},{y[i]:.6f},{x[i,0]:.6f},{x[i,1]:.6f}" for i in range(n)]
    write_basic_csv(f, lines, header="z,w,y,x1,x2")
    return f


def test_analyze_zero_first_stage(zero_take_up_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", str(zero_take_up_file),
               "--methods", "wald,far", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    stratum = report["strata"][0]
    assert stratum["tau_w_hat"] == 0.0
    assert stratum["methods"]["wald"]["set"]["length"] == "inf"
    assert "far" in stratum["methods"]


def test_analyze_exact_method_subset(covariate_file, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["analyze", "--input", str(covariate_file),
               "--methods", "wald,ts", "--out", str(out)])
    assert rc == 0
    methods = json.loads(out.read_text())["strata"][0]["methods"]
    assert sorted(methods) == ["ts", "wald"]


def test_analyze_rerun_byte_identical(covariate_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["analyze", "--input", str(covariate_file), "--out", str(out1)])
    main(["analyze", "--input", str(covariate_file), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_report_round_trip(covariate_file):
    report = analyze_file(str(covariate_file))
    assert json.loads(json.dumps(report)) == report


def test_analyze_malformed_csv(tmp_path):
    f = tmp_path / "bad.csv"
    write_basic_csv(f, ["1,0,1.0", "2,0,2.0", "0,0,3.0", "0,0,4.0"])
    rc = main(["analyze", "--input", str(f), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_analyze_missing_required_column(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("z,y\n1,1.0\n0,2.0\n")
    rc = main(["analyze", "--input", str(f), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_analyze_adjustment_requires_covariates(zero_take_up_file, tmp_path):
    rc = main(["analyze", "--input", str(zero_take_up_file), "--adjust", "ehw",
               "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_analyze_strata_and_skips(tmp_path):
    f = tmp_path / "strata.csv"
    rows = (["A,1,1,2.0", "A,1,0,1.0", "A,0,0,0.5", "A,0,0,1.5"]
            + ["B,1,1,2.0", "B,0,0,1.0", "B,0,0,2.0"])  # B has n1 = 1
    f.write_text("stratum,z,w,y\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o.json"
    assert main(["analyze", "--input", str(f), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["stratum"] for s in report["strata"]] == ["A", "B"]
    assert "skipped" in report["strata"][1]
    assert "methods" in report["strata"][0]


def _strata_csv(path, names, zero_take_up=""):
    """Strata of 60 rows each; in ``zero_take_up`` nobody takes treatment
    and assignment alone moves the outcome by 3."""
    rng = np.random.default_rng(21)
    lines = []
    for name in names:
        z = rng.permutation(np.repeat([1, 0], 30))
        w = np.where(z == 1, (rng.random(60) < 0.6).astype(int), 0)
        y = 2.0 * w + rng.standard_normal(60)
        if name == zero_take_up:
            w = np.zeros(60, dtype=int)
            y += 3.0 * z
        lines += [f"{name},{z[i]},{w[i]},{y[i]:.17g}" for i in range(60)]
    write_basic_csv(path, lines, header="stratum,z,w,y")


def test_analyze_skips_a_stratum_whose_set_cannot_be_inverted(tmp_path):
    # a zero first stage with a significant outcome gap: the FAR inversion
    # is empty, which skips that stratum and leaves the others as they are
    with_b, without_b = tmp_path / "abc.csv", tmp_path / "ac.csv"
    _strata_csv(with_b, "ABC", zero_take_up="B")
    lines = with_b.read_text().splitlines()
    without_b.write_text("\n".join(line for line in lines if not line.startswith("B,")) + "\n")
    out, ref = tmp_path / "abc.json", tmp_path / "ac.json"
    assert main(["analyze", "--input", str(with_b), "--out", str(out)]) == 0
    assert main(["analyze", "--input", str(without_b), "--out", str(ref)]) == 0
    strata = json.loads(out.read_text())["strata"]
    assert [s["stratum"] for s in strata] == ["A", "B", "C"]
    assert strata[1] == {"stratum": "B", "n": 60, "n1": 30, "n0": 30,
                         "skipped": "empty confidence inversion with zero first stage"}
    assert [strata[0], strata[2]] == json.loads(ref.read_text())["strata"]


def test_plot_data_emission(covariate_file, tmp_path):
    out, plot = tmp_path / "o.json", tmp_path / "plot.csv"
    assert main(["analyze", "--input", str(covariate_file), "--out", str(out),
                 "--plot-data", str(plot)]) == 0
    with open(plot) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} >= {"wald", "far"}
    assert all(set(r) == {"stratum", "n", "est_compliers", "method", "length",
                          "strong"} for r in rows)


def test_plot_rows_match_report(covariate_file):
    report = analyze_file(str(covariate_file))
    rows = plot_data_rows(report)
    assert all(row["n"] == report["strata"][0]["n"] for row in rows)


def test_simulate_smoke_and_determinism(tmp_path):
    config = {"n": 40, "tau_w": [0.4], "design": "cre", "reps": 10,
              "seed": 3, "k": 2}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out2)]) == 0
    csv1 = (out1 / "table.csv").read_bytes()
    assert csv1 == (out2 / "table.csv").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header.startswith("method,design,adjustment,n,tau_w")
    assert (out1 / "table.json").exists()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 3
    stages = manifest["stage_seconds"]
    assert list(stages) == ["population", "draws", "tables", "scoring", "rows"]
    assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())
    assert stages["tables"] == 0.0  # a CRE study reads no mixture table


def test_simulate_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 40, "bogus_key": 1}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_rejects_unknown_design(tmp_path, capsys):
    # the design is not case-folded, and it is not silently run as CRE
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 40, "design": "ReM", "k": 2, "reps": 2}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown design 'ReM'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad,key", [({"gamma": []}, "gamma"), ({"tau_w": []}, "tau_w"),
                                     ({"reps": 0}, "reps"), ({"reps": -1}, "reps"),
                                     ({"reps": 2.5}, "reps"),
                                     ({"gamma": [0.075, 1.5]}, "gamma"),
                                     ({"gamma": [0.075, "0.025"]}, "gamma"),
                                     ({"n": 40.0}, "n"), ({"n": 41}, "n"), ({"n": 0}, "n"),
                                     ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
                                     ({"tau_w": ["0.5"]}, "tau_w"), ({"tau_w": [0.6]}, "tau_w"),
                                     ({"tau_w": [0.5, 0.0]}, "tau_w"),
                                     ({"tau_w": [True]}, "tau_w"),
                                     ({"alpha": 1.0}, "alpha"), ({"p_a": 0.0}, "p_a"),
                                     ({"p_plus": 1.5}, "p_plus"),
                                     ({"k": 0}, "k"), ({"k": 2.0}, "k"),
                                     ({"threads": "2"}, "threads"), ({"threads": 1.5}, "threads"),
                                     ({"threads": 0}, "threads"), ({"threads": -3}, "threads"),
                                     ({"threads": True}, "threads"),
                                     ({"tau_w": 0.5}, "tau_w"), ({"gamma": 0.075}, "gamma"),
                                     ({"gamma": [0.075, 0.075]}, "gamma"),
                                     ({"gamma": [0.075, 0.0750000001]}, "gamma")])
def test_simulate_rejects_meaningless_study_values(tmp_path, capsys, bad, key):
    # each would crash, or write a table of nothing, if it reached the study
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 40, "k": 2, "reps": 2, **bad}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("gamma", [[0.075, 0.075], [0.025, 0.075, 0.0750000001]])
def test_simulate_names_both_gammas_of_one_method_name(tmp_path, capsys, gamma):
    # a table row is named by its gamma to 6 significant digits, so two
    # such gammas would give one row and not say which gamma it holds
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 40, "k": 2, "reps": 2, "gamma": gamma}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: gamma must list values with distinct method names; "
        f"0.075 and {gamma[-1]!r} are both ts_gamma_0.075\n")
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("[1, 2]")
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == "error: config must be a JSON object; got list\n"
    assert not (tmp_path / "x").exists()


def test_simulate_package_error_exits_2(tmp_path, capsys):
    # 10 units cannot carry the 12-column interacted design of 5 covariates
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 10, "k": 5, "adjustment": "hc2"}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x"),
               "--reps", "3"])
    assert rc == 2
    assert "error: need n > 12 rows for 12 columns; got 10" in capsys.readouterr().err


def _small_stratum_files(tmp_path):
    """One 10-unit stratum with 5 covariates, written with and without the
    covariate columns: each arm of 5 units has a singular covariance."""
    rng = np.random.default_rng(5)
    z = np.repeat([1, 0], 5)
    w = np.array([1, 1, 1, 0, 1, 0, 1, 0, 0, 0])
    y = 1.5 * w + rng.standard_normal(10)
    x = rng.standard_normal((10, 5))
    with_x, without_x = tmp_path / "with_x.csv", tmp_path / "without_x.csv"
    write_basic_csv(with_x, [f"{z[i]},{w[i]},{y[i]:.6f}," + ",".join(f"{v:.6f}" for v in x[i])
                             for i in range(10)], header="z,w,y,x1,x2,x3,x4,x5")
    write_basic_csv(without_x, [f"{z[i]},{w[i]},{y[i]:.6f}" for i in range(10)])
    return with_x, without_x


def test_analyze_cre_small_stratum_ignores_covariates(tmp_path):
    # unadjusted CRE reads no covariates, so singular ones do not skip it
    with_x, without_x = _small_stratum_files(tmp_path)
    entry = analyze_file(str(with_x))["strata"][0]
    assert "skipped" not in entry
    assert set(entry["methods"]) == set(ALL_METHODS)
    del entry["covariate_means"]
    assert entry == analyze_file(str(without_x))["strata"][0]


@pytest.mark.parametrize("flags,message", [
    (["--design", "rem", "--pa", "0.1"],
     "within-arm covariate covariance is numerically singular"),
    (["--adjust", "hc2"], "need n > 12 rows for 12 columns; got 10"),
])
def test_analyze_small_stratum_skipped_when_covariates_are_read(tmp_path, flags, message):
    with_x, _ = _small_stratum_files(tmp_path)
    out = tmp_path / "o.json"
    assert main(["analyze", "--input", str(with_x), "--out", str(out), *flags]) == 0
    assert json.loads(out.read_text())["strata"][0]["skipped"] == message


@pytest.mark.parametrize("flags", [[], ["--design", "rem", "--pa", "0.1"], ["--adjust", "hc2"]])
def test_analyze_keeps_strata_it_centered_from_a_large_offset(tmp_path, flags):
    # centering x1 = 1e8 + N(0, 1) leaves means of order 1e-8, roundoff of
    # the offset subtracted, not an off-centre covariate
    rng = np.random.default_rng(11)
    lines = []
    for s in range(6):
        z = rng.permutation(np.repeat([1, 0], 15))
        w = np.where(z == 1, (rng.random(30) < 0.7).astype(int), 0)
        x1 = 1e8 + rng.standard_normal(30)
        x2 = rng.standard_normal(30)
        y = 2.0 * w + x2 + rng.standard_normal(30)
        lines += [f"s{s},{z[i]},{w[i]},{y[i]:.17g},{x1[i]:.17g},{x2[i]:.17g}"
                  for i in range(30)]
    f = tmp_path / "offset.csv"
    write_basic_csv(f, lines, header="stratum,z,w,y,x1,x2")
    out = tmp_path / "o.json"
    assert main(["analyze", "--input", str(f), "--out", str(out), *flags]) == 0
    strata = json.loads(out.read_text())["strata"]
    assert len(strata) == 6
    assert [e.get("skipped") for e in strata] == [None] * 6
    assert all(set(e["methods"]) == set(ALL_METHODS) for e in strata)


def test_design_rejects_pa_one(covariate_file, tmp_path):
    rc = main(["design", "--input", str(covariate_file), "--mode", "rem",
               "--pa", "1.0", "--seed", "1", "--out", str(tmp_path / "d.csv")])
    assert rc == 2


def test_design_draw_rem(covariate_file, tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["design", "--input", str(covariate_file), "--mode", "rem",
               "--pa", "0.2", "--seed", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    meta = {l.split("=")[0][2:]: l.split("=")[1] for l in lines if l.startswith("#")}
    assert float(meta["mahalanobis"]) <= float(meta["threshold"])
    assert int(meta["attempts"]) >= 1
    data = [l for l in lines if not l.startswith("#")][1:]
    zs = [int(l.split(",")[1]) for l in data]
    assert sum(zs) == 20


def test_design_draw_cre(covariate_file, tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["design", "--input", str(covariate_file), "--mode", "cre",
               "--seed", "2", "--n1", "13", "--out", str(out)])
    assert rc == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert sum(int(l.split(",")[1]) for l in data) == 13


def test_design_cre_on_collinear_covariates_writes_na(tmp_path, capsys):
    # x2 = 2 x1: no covariate metric, which a CRE draw does not need
    f = tmp_path / "collinear.csv"
    write_basic_csv(f, [f"{i},{2 * i}" for i in range(1, 7)], header="x1,x2")
    out = tmp_path / "d.csv"
    assert main(["design", "--input", str(f), "--mode", "cre", "--seed", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:4] == ["# mode=cre", "# threshold=inf", "# mahalanobis=na", "# attempts=1"]
    assert sum(int(l.split(",")[1]) for l in lines[5:]) == 3
    assert main(["design", "--input", str(f), "--mode", "rem", "--pa", "0.5", "--seed", "1",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: covariate covariance is numerically singular\n"


def test_lambda_table_dump(tmp_path):
    out = tmp_path / "lam.csv"
    rc = main(["lambda", "--k", "5", "--pa", "0.01", "--alpha", "0.05",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,lambda"
    assert len(lines) == 102
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert first == pytest.approx(1.96, abs=0.01)
    assert last < first


@pytest.mark.parametrize("flags,message", [
    (["--k", "5", "--pa", "0.01", "--alpha", "1.2"],
     "--alpha must be strictly between 0 and 1, got 1.2"),
    (["--k", "5", "--pa", "0.01", "--alpha", "0"],
     "--alpha must be strictly between 0 and 1, got 0.0"),
    (["--k", "5", "--a", "0"], "--a must be > 0, got 0.0"),
    (["--k", "5", "--a", "-2.5"], "--a must be > 0, got -2.5"),
    (["--k", "0", "--a", "1.0"], "--k must be >= 1, got 0"),
    (["--k", "-1", "--pa", "0.01"], "--k must be >= 1, got -1"),
    (["--k", "5", "--pa", "1.5"], "--pa must be strictly between 0 and 1, got 1.5"),
    (["--k", "5", "--a", "inf"], "--a must be finite, got inf"),
    # held at 400 steps, the chi-square CDF leaves k = 20,000 unconverged
    (["--k", "20000", "--pa", "0.01"],
     "chi-square CDF with k = 20000 did not converge in 400 steps"),
])
def test_lambda_option_errors_name_the_option(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(mixture, "_STEPS_PER_ROOT", 0)  # the cap no longer grows with k
    out = tmp_path / "lam.csv"
    assert main(["lambda", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_lambda_takes_thousands_of_degrees_of_freedom(tmp_path):
    # the threshold's chi-square CDF converges from k = 6,000 on, and the
    # truncated CDF grid, whose steps are subnormal there, warns of nothing
    out = tmp_path / "lam.csv"
    assert main(["lambda", "--k", "6000", "--pa", "0.01", "--out", str(out)]) == 0
    lams = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert lams[0] == pytest.approx(1.96, abs=0.01)
    assert all(b <= a for a, b in zip(lams, lams[1:]))


def test_analyze_rejects_pa_without_rem_design(tmp_path, capsys):
    # a CRE analysis has no acceptance threshold; --pa would only be echoed
    f = tmp_path / "r.csv"
    write_basic_csv(f, _strata_rows(1), header="stratum,z,w,y,x1")
    out = tmp_path / "o.json"
    rc = main(["analyze", "--input", str(f), "--pa", "0.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --pa applies only with --design rem\n"
    assert not out.exists()
    with pytest.raises(ValueError, match="--pa applies only with --design rem"):
        analyze_file(str(f), p_a=0.5)


@pytest.mark.parametrize("flags", [["--design", "rem", "--pa", "0.1"], []], ids=["rem", "cre"])
def test_analyze_reports_every_stratum_beside_a_huge_outcome_t_statistic(tmp_path, flags):
    # stratum b's outcome is 1000 z plus noise of size 1e-153: its ratio is
    # too large to square on the correlation's common scale, which once gave
    # the ReM group pass a nan correlation, and every stratum was lost (exit 2)
    rng = np.random.default_rng(3)
    lines = ["stratum,z,w,y,x1,x2"]
    for key in "abc":
        z = np.repeat([1, 0], 20)
        w = ((rng.random(40) < 0.3) | (z == 1) & (rng.random(40) < 0.6)).astype(int)
        x = rng.standard_normal((40, 2))
        y = (1000.0 * z + 1e-153 * rng.standard_normal(40) if key == "b"
             else x.sum(axis=1) + 2.0 * w + rng.standard_normal(40))
        lines += [f"{key},{a},{b},{c!r},{d!r},{e!r}" for a, b, c, d, e in
                  zip(z, w, y.tolist(), x[:, 0].tolist(), x[:, 1].tolist())]
    f, out = tmp_path / "huge_t.csv", tmp_path / "r.json"
    f.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--input", str(f), "--out", str(out), *flags]) == 0
    strata = json.loads(out.read_text())["strata"]
    assert [e["stratum"] for e in strata] == list("abc")
    assert all(list(e["methods"]) == list(ALL_METHODS) for e in strata)
    assert strata[1]["methods"]["wald"]["set"]["type"] == "interval"


def test_rem_gamma_of_one_half_or_more_is_refused(covariate_file, tmp_path, capsys):
    # the ReM t test's critical value is a mixture quantile with tail gamma,
    # which is defined below one half; a CRE or adjusted t test takes the
    # normal quantile at any gamma in (0, 1)
    out, rem = tmp_path / "r.json", ["--design", "rem", "--pa", "0.1"]
    rc = main(["analyze", "--input", str(covariate_file), *rem, "--gamma", "0.5",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: gamma must be in (0, 0.5) under "
                                       "rerandomization without adjustment; got 0.5\n")
    assert not out.exists()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 40, "k": 2, "reps": 2, "design": "rem",
                                    "gamma": [0.075, 0.6]}))
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: gamma must list numbers in (0, 0.5) under "
                                       "rerandomization without adjustment; got 0.6\n")
    assert not (tmp_path / "x").exists()
    for flags in ([], [*rem, "--adjust", "ehw"]):
        assert main(["analyze", "--input", str(covariate_file), *flags, "--gamma", "0.5",
                     "--out", str(out)]) == 0


def test_design_rejects_pa_without_rem_mode(covariate_file, tmp_path, capsys):
    # a CRE draw has no acceptance threshold; --pa would be silently ignored
    out = tmp_path / "d.csv"
    rc = main(["design", "--input", str(covariate_file), "--mode", "cre",
               "--pa", "0.5", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --pa applies only with --mode rem\n"
    assert not out.exists()


def test_read_records_row_errors(tmp_path):
    f = tmp_path / "ragged.csv"
    f.write_text("z,w,y\n1,0,1.0\n1,0\n")
    with pytest.raises(ValueError, match="row 3"):
        read_records(str(f))


def _strata_rows(strata):
    rows = []
    for s in range(strata):
        rows += [f"S{s},1,1,2.0,0.5", f"S{s},1,0,1.0,-0.5",
                 f"S{s},0,0,0.5,0.25", f"S{s},0,1,1.5,-0.25"]
    return rows


def test_analyze_reads_utf8_bom_header(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_bytes(("\ufeffstratum,z,w,y,x1\n" + "\n".join(_strata_rows(16))
                   + "\n").encode("utf-8"))
    out = tmp_path / "o.json"
    assert main(["analyze", "--input", str(f), "--methods", "wald",
                 "--out", str(out)]) == 0
    strata = json.loads(out.read_text())["strata"]
    assert [s["stratum"] for s in strata] == [f"S{s}" for s in range(16)]


def test_design_reads_utf8_bom_header(tmp_path):
    f = tmp_path / "bom.csv"
    rows = [f"{0.1 * i:.1f},{(-1) ** i}" for i in range(10)]
    f.write_bytes(("\ufeffx1,x2\n" + "\n".join(rows) + "\n").encode("utf-8"))
    out = tmp_path / "draw.txt"
    assert main(["design", "--input", str(f), "--mode", "cre", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5 + 10


@pytest.mark.parametrize("header, message", [
    ("stratum,z,w,y,x1,w", "duplicate column 'w'"),
    ("stratum,z,w,y,x1,x1", "duplicate column 'x1'"),
    ("stratum,z,w,y,x1,x3", "missing covariate column 'x2' (header has x1, x3)"),
    ("stratum,z,w,y,x2,x3", "missing covariate column 'x1' (header has x2, x3)"),
])
def test_analyze_rejects_ambiguous_header(tmp_path, capsys, header, message):
    f = tmp_path / "bad.csv"
    extra = header.count(",") - 3
    rows = [r.rsplit(",", 1)[0] + ",0.5" * extra for r in _strata_rows(2)]
    write_basic_csv(f, rows, header=header)
    rc = main(["analyze", "--input", str(f), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    ("x1,x2,x1", "duplicate column 'x1'"),
    ("x1,x3", "missing covariate column 'x2' (header has x1, x3)"),
])
def test_design_rejects_ambiguous_header(tmp_path, capsys, header, message):
    f = tmp_path / "bad.csv"
    width = header.count(",") + 1
    write_basic_csv(f, [",".join(["0.5"] * width), ",".join(["-0.5"] * width)],
                    header=header)
    rc = main(["design", "--input", str(f), "--mode", "cre",
               "--out", str(tmp_path / "d.txt")])
    assert rc == 2
    assert message in capsys.readouterr().err


# a cell longer than csv's field size limit of 131,072 characters
_HUGE = "A" * 200_000
_OVERSIZED = {
    # a quoted key
    "quoted_first_key": (["analyze"], "stratum,z,w,y,x1",
                         [f'"{_HUGE}",1,1,2.0,0.5', *_strata_rows(3)], 2),
    # an unquoted key, before a ragged record
    "unquoted_in_ragged_block": (["analyze"], "stratum,z,w,y,x1",
                                 [*_strata_rows(1)[:2], f"{_HUGE},1,1,2.0,0.5",
                                  *_strata_rows(2), "S9,1,1,2.0,0.5,7"], 4),
    "header_cell": (["analyze"], f'stratum,z,w,y,x1,"{_HUGE}"',
                    [r + ",0" for r in _strata_rows(3)], 1),
    "quoted_design_id": (["design", "--mode", "cre"], "id,x1,x2",
                         [f'"{_HUGE}",0.5,-0.5', "b,-0.5,0.5", "c,0.25,0.75"], 2),
}


@pytest.mark.parametrize("case", _OVERSIZED)
def test_cell_over_csv_field_limit_names_its_row(tmp_path, capsys, case):
    command, header, rows, row = _OVERSIZED[case]
    f, out = tmp_path / "huge.csv", tmp_path / "out"
    write_basic_csv(f, rows, header=header)
    rc = main([*command, "--input", str(f), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: row {row}: field larger than field limit" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("ragged, message", [
    (None, "row 10: field larger than field limit (131072)"),
    (2, "row 4: expected 5 fields, got 6"),
    (9, "row 10: field larger than field limit (131072)"),
])
def test_oversized_cell_reads_alike_quoted_or_not(tmp_path, capsys, ragged, message):
    # a line over csv's limit goes to the record loop, so an unquoted file
    # fails as its quoted copy does, at the first bad row
    rows = [*_strata_rows(2), f"{_HUGE},1,1,2.0,0.5", *_strata_rows(2)]
    if ragged is not None:
        rows.insert(ragged, "S9,1,1,2.0,0.5,7")
    errors = []
    for quoted in (False, True):
        f, out = tmp_path / f"huge_{quoted}.csv", tmp_path / f"out_{quoted}"
        write_basic_csv(f, ['"{}",{}'.format(*r.split(",", 1)) if quoted else r
                            for r in rows], header="stratum,z,w,y,x1")
        assert main(["analyze", "--input", str(f), "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == f"error: {message}\n"


@pytest.mark.parametrize("methods, message", [
    (",", "--methods names no method"),
    (" , ,", "--methods names no method"),
    ("wald,wald", "--methods lists 'wald' twice"),
    ("far,ts,far", "--methods lists 'far' twice"),
    ("wald,bogus", "--methods: unknown method 'bogus'"),
])
def test_analyze_rejects_empty_or_repeated_methods(covariate_file, tmp_path, capsys,
                                                   methods, message):
    out = tmp_path / "r.json"
    rc = main(["analyze", "--input", str(covariate_file), "--methods", methods,
               "--out", str(out)])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    ((), "--methods names no method; choose from "),
    (("wald", "wald"), "--methods lists 'wald' twice"),
    (["far", "ts", "far"], "--methods lists 'far' twice"),
    (("wald", "bogus"), "--methods: unknown method 'bogus'; choose from "),
])
def test_analyze_file_checks_methods_as_the_cli_does(tmp_path, methods, message):
    # every stratum is skipped (one treated unit), so no stratum reads a method
    path = tmp_path / "skipped.csv"
    path.write_text("stratum,z,w,y\n" + "".join(f"{key},{int(i == 0)},{int(i == 0)},{i}\n"
                                                for key in "ab" for i in range(4)))
    report = analyze_file(str(path), methods=["far"])
    assert report["settings"]["methods"] == ["far"]
    assert all("skipped" in entry for entry in report["strata"])
    with pytest.raises(ValueError) as info:
        analyze_file(str(path), methods=methods)
    assert str(info.value) == (message + str(ALL_METHODS) if message.endswith("from ")
                               else message)


def test_analyze_out_of_memory_exits_2_without_a_traceback(covariate_file, tmp_path, capsys,
                                                          monkeypatch):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(io, "read_records", exhausted)
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", str(covariate_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: latekit analyze ran out of memory\n"
    assert not out.exists()


def test_design_rejects_negative_seed(covariate_file, tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["design", "--input", str(covariate_file), "--mode", "cre",
               "--seed", "-1", "--out", str(out)])
    assert rc == 2
    assert "error: --seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------- units and scales of the data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_REGIMES = {"cre": [], "rem": ["--design", "rem", "--pa", "0.1"], "hc2": ["--adjust", "hc2"]}
_ALL_REGIMES = {**_REGIMES, "rem_ehw": [*_REGIMES["rem"], "--adjust", "ehw"]}
# report.json numbers on the outcome's scale
_OUTCOME_KEYS = {"tau_y_hat", "estimate", "lo", "hi", "length", "hi_left", "lo_right"}


@pytest.fixture(scope="module")
def strata_input(tmp_path_factory):
    """The benchmark's analyze input: 200 strata with covariates x1..x3."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    path = tmp_path_factory.mktemp("strata") / "strata.csv"
    workloads.write_strata_csv(path, 20240901)
    return path


def _table(src):
    """The header of a CSV file and its rows."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def _numbers(src, *names):
    """The named columns of ``src`` as floats, one array column each."""
    header, rows = _table(src)
    return np.array([[float(row[header.index(name)]) for name in names] for row in rows])


def _replaced(src, dst, **columns):
    """``src`` with each named column replaced by the given numbers."""
    header, rows = _table(src)
    for name, values in columns.items():
        i = header.index(name)
        for row, value in zip(rows, values):
            row[i] = repr(float(value))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return dst


def _rescaled(src, dst, **factors):
    """``src`` with each named column multiplied by its factor."""
    return _replaced(src, dst, **{name: _numbers(src, name)[:, 0] * factor
                                  for name, factor in factors.items()})


def _analyze(path, out, flags=(), plot=None):
    argv = ["analyze", "--input", str(path), "--out", str(out), *flags]
    assert main(argv + (["--plot-data", str(plot)] if plot else [])) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def strata_reports(strata_input, tmp_path_factory):
    """The report of ``strata_input`` under each regime of _ALL_REGIMES."""
    out = tmp_path_factory.mktemp("reports")
    return {regime: _analyze(strata_input, out / f"{regime}.json", flags)
            for regime, flags in _ALL_REGIMES.items()}


def _times(value, factor):
    """``value`` with every number under one of _OUTCOME_KEYS times ``factor``."""
    if isinstance(value, dict):
        return {k: v * factor if k in _OUTCOME_KEYS and isinstance(v, float)
                else _times(v, factor) for k, v in value.items()}
    if isinstance(value, list):
        return [_times(v, factor) for v in value]
    return value


def _assert_close(got, want, rel):
    """Equal structures whose numbers agree within ``rel`` relative."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            _assert_close(got[k], want[k], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w, rel)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=0.0)
    else:
        assert got == want


@pytest.mark.parametrize("regime", _REGIMES)
def test_analyze_scales_outcome_numbers_with_y(strata_input, strata_reports, tmp_path, regime):
    # y -> 4y multiplies tau_y, the Wald estimate and every endpoint and
    # length by exactly 4; first stages, kinds and skips stay as they are
    base = strata_reports[regime]
    assert sum("methods" in e for e in base["strata"]) == 196
    scaled = _analyze(_rescaled(strata_input, tmp_path / "y4.csv", y=4.0),
                      tmp_path / "y4.json", _REGIMES[regime])
    assert scaled == _times(base, 4.0)


@pytest.mark.parametrize("regime", _REGIMES)
def test_analyze_ignores_covariate_units(strata_input, strata_reports, tmp_path, regime):
    # x -> x diag(2^20, 2^-20, 1) changes only the reported covariate means:
    # bit for bit where the numbers are exact, within roundoff under ReM,
    # which inverts the covariate covariance; its singularity test must not
    # depend on units, or ReM skips every stratum here
    base = strata_reports[regime]
    scaled = _analyze(_rescaled(strata_input, tmp_path / "x.csv", x1=2.0 ** 20, x2=2.0 ** -20),
                      tmp_path / "x.json", _REGIMES[regime])
    for entry in scaled["strata"]:
        means = entry["covariate_means"]
        entry["covariate_means"] = [means[0] * 2.0 ** -20, means[1] * 2.0 ** 20, means[2]]
    if regime == "rem":
        _assert_close(scaled, base, 1e-12)
    else:
        assert scaled == base


# set endpoints and Wald estimates: each moves with a shift of the effect
_ENDPOINT_KEYS = {"estimate", "lo", "hi", "hi_left", "lo_right"}


def _shifted(value, by):
    """``value`` with every endpoint and Wald estimate plus ``by``, and each
    stratum's tau_y_hat plus ``by`` times its tau_w_hat."""
    if isinstance(value, dict):
        out = {k: v + by if k in _ENDPOINT_KEYS and isinstance(v, float) else _shifted(v, by)
               for k, v in value.items()}
        if "tau_y_hat" in out:
            out["tau_y_hat"] += by * out["tau_w_hat"]
        return out
    if isinstance(value, list):
        return [_shifted(v, by) for v in value]
    return value


@pytest.mark.parametrize("regime", _ALL_REGIMES)
def test_analyze_shifts_sets_with_y_plus_3w(strata_input, strata_reports, tmp_path, regime):
    # y -> y + 3w adds 3 to tau_Y / tau_W: every endpoint and Wald estimate
    # moves by 3 and every length, first stage, kind and skip stays
    y, w = _numbers(strata_input, "y", "w").T
    shifted = _analyze(_replaced(strata_input, tmp_path / "y3w.csv", y=y + 3.0 * w),
                       tmp_path / "y3w.json", _ALL_REGIMES[regime])
    _assert_close(shifted, _shifted(strata_reports[regime], 3.0), 1e-10)


@pytest.mark.parametrize("regime", _ALL_REGIMES)
def test_analyze_sets_ignore_affine_covariate_maps(strata_input, strata_reports, tmp_path,
                                                    regime):
    # x -> xA + b: the centered covariates span the same space, so the sets
    # stay; CRE reads no covariates and keeps every bit
    a = np.array([[2.0, 0.5, 0.0], [-1.0, 1.0, 0.25], [0.5, 0.0, 3.0]])
    b = np.array([10.0, -5.0, 100.0])
    x = _numbers(strata_input, "x1", "x2", "x3") @ a + b
    mapped = _analyze(_replaced(strata_input, tmp_path / "xab.csv", x1=x[:, 0], x2=x[:, 1],
                                x3=x[:, 2]), tmp_path / "xab.json", _ALL_REGIMES[regime])
    base = strata_reports[regime]
    for entry, want in zip(mapped["strata"], base["strata"]):
        means = np.array(entry.pop("covariate_means"))
        assert means == pytest.approx(np.array(want["covariate_means"]) @ a + b, rel=1e-12)
    base = {**base, "strata": [{k: v for k, v in e.items() if k != "covariate_means"}
                               for e in base["strata"]]}
    if regime == "cre":
        assert mapped == base
    else:
        _assert_close(mapped, base, 1e-10)


_SEEDS = (20240901, 777)


@pytest.fixture(scope="module")
def seeded_reports(tmp_path_factory):
    """For each seed, the benchmark's analyze input written at it, and its
    report under each regime of _ALL_REGIMES."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
    out = {}
    for seed in _SEEDS:
        where = tmp_path_factory.mktemp(f"seed{seed}")
        workloads.write_strata_csv(where / "strata.csv", seed)
        out[seed] = where / "strata.csv", {
            regime: _analyze(where / "strata.csv", where / f"{regime}.json", flags)
            for regime, flags in _ALL_REGIMES.items()}
    return out


def _entries(report):
    # repr round-trips every double, so equal text is equal bits
    return [json.dumps(entry) for entry in report["strata"]]


@pytest.mark.parametrize("regime", _ALL_REGIMES)
@pytest.mark.parametrize("seed", _SEEDS)
def test_analyze_reports_strata_in_reverse_order_alike(seeded_reports, tmp_path, seed, regime):
    # each stratum is its own population: the strata in reverse order give
    # every entry bit for bit, in reverse order
    path, reports = seeded_reports[seed]
    header, rows = _table(path)
    key = header.index("stratum")
    blocks: dict = {}
    for row in rows:
        blocks.setdefault(row[key], []).append(row)
    with open(tmp_path / "reversed.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *(row for block in reversed(blocks.values())
                                            for row in block)])
    got = _analyze(tmp_path / "reversed.csv", tmp_path / "reversed.json", _ALL_REGIMES[regime])
    assert _entries(got) == _entries(reports[regime])[::-1]
    assert len(blocks) == 200 and sum("methods" in e for e in got["strata"]) == 196


@pytest.mark.parametrize("m", [-300, 40, 300])
@pytest.mark.parametrize("regime", _ALL_REGIMES)
@pytest.mark.parametrize("seed", _SEEDS)
def test_analyze_scales_outcome_numbers_with_y_by_a_power_of_two(seeded_reports, tmp_path,
                                                                 seed, regime, m):
    # y -> y 2^m multiplies tau_y, the Wald estimate and every endpoint and
    # length by exactly 2^m, as far out as 2^300 either way; everything else
    # keeps its bits
    path, reports = seeded_reports[seed]
    scaled = _analyze(_rescaled(path, tmp_path / "y.csv", y=2.0 ** m), tmp_path / "y.json",
                      _ALL_REGIMES[regime])
    assert _entries(scaled) == _entries(_times(reports[regime], 2.0 ** m))


def test_design_rem_ignores_covariate_units(tmp_path):
    # covariates a billion-fold apart in scale: the same draw as on the
    # standardized covariates, not a singular covariance
    x = np.random.default_rng(80).standard_normal((80, 2))
    draws = []
    for name, scale in (("unit", (1.0, 1.0)), ("mixed", (1e6, 1e-3))):
        f, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out"
        write_basic_csv(f, [f"{a * scale[0]!r},{b * scale[1]!r}" for a, b in x.tolist()],
                        header="x1,x2")
        assert main(["design", "--input", str(f), "--mode", "rem", "--pa", "0.1",
                     "--seed", "3", "--out", str(out)]) == 0
        draws.append([l for l in out.read_text().splitlines() if "mahalanobis" not in l])
    assert draws[0] == draws[1]


@pytest.mark.parametrize("factors,flags,reason,count", [
    ({"y": 1e200}, [], "y varies on a scale", 200),
    ({"y": 1e200}, _REGIMES["rem"], "y varies on a scale", 200),
    ({"y": 1e-170}, [], "y varies on a scale", 200),
    ({"y": 1e-170}, _REGIMES["rem"], "y varies on a scale", 200),
    # the 4 strata of 3 rows are skipped for their arm sizes
    ({"x1": 1e-160, "x2": 1e-160, "x3": 1e-160}, _REGIMES["rem"],
     "variance estimates are not finite", 196),
])
def test_analyze_skips_strata_on_an_unworkable_scale(strata_input, tmp_path, factors, flags,
                                                     reason, count):
    # unskipped, these give null endpoints, zero-width Wald intervals from
    # an underflowed variance, or a run stopped by a nan squared correlation
    report = _analyze(_rescaled(strata_input, tmp_path / "s.csv", **factors),
                      tmp_path / "s.json", flags, plot=tmp_path / "lengths.csv")
    skips = [e["skipped"] for e in report["strata"] if "skipped" in e]
    assert len(skips) == 200
    assert sum(reason in s for s in skips) == count


# ----------------------------------- the artefact writer and the parser

class _Count(int):
    pass


class _Name(str):
    pass


# leaves the writer encodes itself, and subclasses it hands to json.dumps
_LEAVES = ["", "plain", "naïve – ünïcödé ☃ \U0001f600",
           "tab\t new\n line\r nul\x00 us\x1f del\x7f quote\" backslash\\ slash/",
           math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
           0.1, 1 / 3, 2.0 ** 70, 0, -1, 2 ** 64 + 1, -(2 ** 70), 10 ** 40, True, False,
           None, np.float64(0.25), np.float64(math.nan), np.float64(-0.0), np.float64(1e308),
           _Count(7), _Name("subé")]
_KEYS = ["a", "", "key with space", "über", "ctl\x01", "x1", "methods"]
_ODD_KEYS = [1, -2, 2.5, math.inf, False, None, 2 ** 65, _Name("s")]


def _random_tree(rng, depth):
    pick = rng.random()
    if depth == 0 or pick < 0.35:
        return rng.choice(_LEAVES)
    size = rng.choice([0, 1, 2, 3, 6])
    if pick < 0.55:
        return [_random_tree(rng, depth - 1) for _ in range(size)]
    if pick < 0.65:
        return tuple(_random_tree(rng, depth - 1) for _ in range(size))
    keys = _ODD_KEYS if pick < 0.72 else _KEYS
    return {rng.choice(keys): _random_tree(rng, depth - 1) for _ in range(size)}


def _json_text(obj):
    parts = []
    cli._json_text(obj, parts.append)
    return "".join(parts)


def test_json_writer_is_json_dumps_on_random_trees():
    rng = random.Random(20240901)
    trees = [[], {}, (), [[]], {"a": {}}, *_LEAVES,
             *(_random_tree(rng, 5) for _ in range(400))]
    for tree in trees:
        assert _json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2, 3}]}, [np.int64(3)],
                                 {"a": {(1, 2): 0}}, {"b": [np.bool_(True)]}])
def test_json_writer_raises_the_stdlib_type_error(obj):
    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(obj)
    assert str(got.value) == str(want.value)


def test_json_writer_is_json_dumps_on_real_artefacts(covariate_file, tmp_path):
    config = {"n": 40, "tau_w": [0.05, 0.4], "design": "cre", "reps": 10, "seed": 3,
              "k": 2, "gamma": [0.075, 0.025]}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "sim")]) == 0
    config["tau_w"], config["gamma"] = tuple(config["tau_w"]), tuple(config["gamma"])
    table = run_study(StudyConfig(**config)).to_json_dict()
    assert (tmp_path / "sim" / "table.json").read_text() == json.dumps(table, indent=2) + "\n"
    rem_hc2 = {"design": "rem", "p_a": 0.2, "adjustment": "hc2"}
    for flags, options in (([], {}), (["--design", "rem", "--pa", "0.2", "--adjust", "hc2"],
                                      rem_hc2)):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(covariate_file), "--out", str(out), *flags]) == 0
        report = analyze_file(str(covariate_file), **options)
        assert out.read_text() == json.dumps(report, indent=2) + "\n"
    # the manifest holds wall times: it must be its own values, json.dumps'd
    manifest = (tmp_path / "sim" / "manifest.json").read_text()
    assert manifest == json.dumps(json.loads(manifest), indent=2) + "\n"


def _outputs(outdir):
    """Every file under ``outdir`` by name; a manifest without its times."""
    files = {}
    for path in sorted(outdir.rglob("*.*")):
        text = path.read_text()
        if path.name == "manifest.json":
            text = json.loads(text)
            del text["wall_time_seconds"], text["stage_seconds"]
        files[path.relative_to(outdir).as_posix()] = text
    return files


def test_cached_parser_serves_every_command_alike(covariate_file, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 30, "tau_w": [0.3], "reps": 5, "seed": 4, "k": 2}))

    def runs(out):
        return [["analyze", "--input", str(covariate_file), "--methods", "ts,wald",
                 "--alpha", "0.1", "--out", str(out / "a1" / "report.json"),
                 "--plot-data", str(out / "a1" / "lengths.csv")],
                ["simulate", "--config", str(cfg_file), "--out", str(out / "sim"),
                 "--reps", "7"],
                ["analyze", "--input", str(covariate_file),
                 "--out", str(out / "a2" / "report.json")]]

    assert cli._build_parser() is cli._build_parser()
    together, alone = tmp_path / "together", tmp_path / "alone"
    for out in (together, alone):
        (out / "a1").mkdir(parents=True)
        (out / "a2").mkdir()
    analyze, simulate, analyze_again = runs(together)
    assert main(analyze) == 0
    with pytest.raises(SystemExit) as info:  # argparse exits on a bad value
        main(["analyze", "--input", str(covariate_file), "--out", "x.json",
              "--alpha", "half"])
    assert info.value.code == 2
    assert "invalid float value: 'half'" in capsys.readouterr().err
    assert main(simulate) == 0
    assert main(analyze_again) == 0
    for argv in runs(alone):
        cli._build_parser.cache_clear()  # each a first call
        assert main(argv) == 0
    assert _outputs(alone) == _outputs(together)
    assert len(_outputs(together)) == 6
