"""The artefact comparison of tools/compare_outputs.py on crafted bytes, and
the one-row lines of tools/two_stage_lines.py it compares."""
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from latekit.confidence_sets import far_set, wald_ci
from latekit.data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates
from latekit.estimation import Estimates, variance_components
from latekit.io import read_records
from latekit.stats_core import fit_interacted_pair, sandwich_cov, summarize
from latekit.two_stage import f_screen, first_stage_test, two_stage_set

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_STEPS = {"wald_ci": wald_ci, "far_set": far_set, "first_stage_test": first_stage_test,
          "f_screen": lambda regime, est, cov, config: f_screen(regime, est, cov)}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench on it
    return _load("compare_outputs")


def test_identical_bytes_differ_by_nothing(compare):
    text = b'{"lo": -1.25e-3, "kind": "interval", "n": 120}\n'
    assert compare.largest_difference(text, text) == 0.0


def test_the_largest_relative_move_of_any_number(compare):
    a = b"method,lo,hi\nwald,1.0,-2.5e+10\nfar,3,inf\n"
    b = b"method,lo,hi\nwald,1.0000000001,-2.5000001e+10\nfar,3,inf\n"
    assert compare.largest_difference(a, b) == pytest.approx(4e-8, rel=1e-6)
    assert compare.largest_difference(b, a) == compare.largest_difference(a, b)
    # another spelling of the same number moves nothing, though the bytes differ
    assert compare.largest_difference(b"x,1.50\n", b"x,1.5\n") == 0.0
    assert compare.largest_difference(b"0.0,-0", b"0,0") == 0.0


def test_a_text_difference_is_none(compare):
    # a changed kind, a missing number, an inf for a number, a new key
    for a, b in ((b'"kind": "interval"', b'"kind": "two_rays"'), (b"1,2,3", b"1,2,"),
                 (b"lo,1.5", b"lo,inf"), (b'{"a": 1}', b'{"a": 1, "b": 2}')):
        assert compare.largest_difference(a, b) is None


def test_usage_without_two_checkouts(compare, capsys):
    assert compare.main(["only-one"]) == 2
    assert "PARENT CHANGE" in capsys.readouterr().err


def test_every_analyze_setting_also_runs_two_stage_set(compare, tmp_path):
    runs = [(name, argv) for name, argv, artefacts in compare.runs(tmp_path, 777)
            if artefacts == ("two_stage_set.jsonl",)]
    assert [name for name, _ in runs] == [f"analyze_strata[{setting}]"
                                          for setting in compare.ANALYZE_SETTINGS]
    for (_, argv), extra in zip(runs, compare.ANALYZE_SETTINGS.values()):
        assert argv[0] == str(compare.TWO_STAGE_LINES) and argv[3:] == extra


def test_method_runs_write_analyze_artefacts_only(compare, tmp_path):
    # analyze with the F screen's skip and branch rows and no t test, under
    # cre and rem; two_stage_lines.py takes no --methods
    runs = [(name, argv, artefacts) for name, argv, artefacts in compare.runs(tmp_path, 777)
            if "--methods" in argv]
    assert [name for name, _, _ in runs] == [
        f"analyze_strata[{setting},{methods}]" for setting in ("cre", "rem")
        for methods in ("wald_f10,far", "ts_f10,wald")]
    for (_, argv, artefacts), extra in zip(runs, compare.METHOD_SETTINGS.values()):
        assert argv[:3] == ["-m", "latekit.cli", "analyze"] and argv[-len(extra):] == extra
        assert artefacts == ("report.json", "lengths.csv")


def test_a_file_of_strata_of_every_size_runs_analyze_under_each_setting(compare, tmp_path):
    # strata of 60 to 259 rows, about half treated: 100 arm sizes are those
    # of a treated arm of one stratum and a control arm of another
    runs = [(name, argv, artefacts) for name, argv, artefacts in compare.runs(tmp_path, 777)
            if name.startswith("analyze_sizes")]
    assert [name for name, _, _ in runs] == [f"analyze_sizes[{setting}]"
                                          for setting in compare.ANALYZE_SETTINGS]
    path = tmp_path / "sized_strata.csv"
    for (_, argv, artefacts), extra in zip(runs, compare.ANALYZE_SETTINGS.values()):
        assert argv[:5] == ["-m", "latekit.cli", "analyze", "--input", str(path)]
        assert argv[len(argv) - len(extra):] == extra
        assert artefacts == ("report.json", "lengths.csv")
    strata = read_records(str(path))
    assert [len(records.z) for records in strata] == list(range(60, 260))
    treated = {int(records.z.sum()) for records in strata}
    assert len(treated & {len(records.z) - int(records.z.sum()) for records in strata}) == 100


def _lines(tmp_path, *options):
    """The strata of a small file, centred as two_stage_lines.py centres
    them, with their means, and the lines it writes for them under
    ``options``; the second stratum has one treated unit."""
    rng = np.random.default_rng(4)
    rows, strata = ["stratum,z,w,y,x1"], {}
    for key, n1 in (("a", 10), ("b", 1), ("c", 12)):
        z = np.repeat([1, 0], [n1, 20 - n1])
        w = ((rng.random(20) < 0.3) | (z == 1)).astype(int)
        y, x = rng.standard_normal(20) + w, rng.standard_normal((20, 1)) + 3.0
        rows += [f"{key},{a},{b},{c!r},{d!r}" for a, b, c, d in
                 zip(z, w, y.tolist(), x[:, 0].tolist())]
        x, means = center_covariates(x)
        strata[key] = Dataset(z=z, w=w, y=y, x=x), means
    path, out = tmp_path / "strata.csv", tmp_path / "lines.jsonl"
    path.write_text("\n".join(rows) + "\n")
    assert _load("two_stage_lines").main([str(path), str(out), *options]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line.pop("stratum") for line in lines] == list(strata)
    assert lines[1]["two_stage_set"] == {"error": ["InvalidDatasetError", "n1 < 2"]}
    assert all("error" in lines[1][name] for name in ("components", *_STEPS))
    return [strata["a"], strata["c"]], lines[::2]


def test_two_stage_lines_writes_each_stratum_or_its_error(tmp_path):
    # one JSON line per stratum, in input order: the centred stratum's
    # two_stage_set entry, the estimates and sandwich triple of the
    # interacted fit and the one-row procedures' fields from them, or the
    # type and message of what each raised
    config = AnalysisConfig(adjustment="hc2", design=DesignSpec.cre(1))
    for (ds, means), line in zip(*_lines(tmp_path, "--adjust", "hc2")):
        want = {"two_stage_set": two_stage_set(ds, config, means).to_json_dict()}
        fit_y, fit_w = fit_interacted_pair(ds, ds.z)
        est, cov = Estimates(fit_y.tau_hat, fit_w.tau_hat), sandwich_cov(fit_y, fit_w, "hc2")
        want["components"] = {"tau_y": est.tau_y, "tau_w": est.tau_w, "v_y": cov.v_y,
                              "c_yw": cov.c_yw, "v_w": cov.v_w, "flavor": "hc2"}
        for name, step in _STEPS.items():
            want[name] = dataclasses.asdict(step("adjusted", est, cov, config))
        assert line == json.loads(json.dumps(want))


def test_two_stage_lines_writes_every_moment_family_under_rem(tmp_path):
    # the arm-moment kernel's numbers themselves: summarize's estimates and
    # each family triple of variance_components, with the covariates
    for (ds, _), line in zip(*_lines(tmp_path, "--design", "rem", "--pa", "0.1")):
        summary = summarize(ds, ds.z)
        comp = variance_components(summary)
        assert line["components"] == json.loads(json.dumps(
            {"tau_y": summary.tau_y, "tau_w": summary.tau_w, "plain": comp.plain,
             "rem": comp.rem, "proj": comp.proj, "k": 1}))
        assert comp.rem is not None and comp.proj is not None
