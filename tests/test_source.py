"""Checks on the package source itself."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latekit"
PERFBENCH = SRC.parents[1] / "perfbench"


def test_package_has_no_assert_statements():
    # invariants are real checks: python -O strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
    assert len(list(SRC.glob("*.py"))) >= 12  # the package was found


def test_only_stats_core_tests_and_factors_a_covariance():
    # one place decides whether a covariance can be inverted
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("eigvalsh", "cholesky")]
    assert calls and all(c.startswith("stats_core.py:") for c in calls), calls



def test_only_estimation_and_stats_core_factor_a_design():
    # one array fitter serves the study's adjusted cells (estimation.arm_fits,
    # one QR per population) beside the one-row interacted fit (stats_core);
    # a second QR of arm designs would be a second array fitter
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "qr"]
    assert {c.split(":")[0] for c in calls} == {"estimation.py", "stats_core.py"}, calls


def test_only_io_and_estimation_estimate_from_a_dataset():
    # one path takes a dataset to estimates and variance families: analyze's
    # stratum steps (io), which two_stage_set also runs, and the families
    # themselves (estimation), whose row_families refits the rows its arm
    # fits leave unsure
    names = {"summarize", "fit_interacted_pair", "sandwich_cov", "variance_components",
             "plain_components"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    callers.add(path.name)
    assert callers == {"io.py", "estimation.py"}, callers



def _call_sites(names):
    """Where the package calls each of ``names``, by name, as
    ``file:innermost enclosing function``."""
    found = {name: set() for name in names}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in found:
                    owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
                    found[name].add(f"{path.name}:{owner}")
    return found


def _callers(names):
    """The package files that call each of ``names``, by name."""
    return {name: {site.split(":")[0] for site in sites}
            for name, sites in _call_sites(names).items()}


def test_arm_moments_and_families_have_three_callers():
    # arm moments are computed by one kernel, which summarize's one-row path
    # (stats_core) shares; the families of many rows come from one builder,
    # estimation.row_families, with three callers: the study cells
    # (simulation), analyze's groups and its one-row adjusted path (io). It
    # alone calls the arm kernel, the moment families and the arm fits, but
    # for variance_components' one-row moment families. A second moment path
    # or family builder has to change these lists.
    kernel = _callers(["_arm_moments", "_plain_arm", "_with_covariates"])
    assert kernel == {"_arm_moments": {"estimation.py"}, "_plain_arm": {"stats_core.py"},
                      "_with_covariates": {"stats_core.py"}}, kernel
    sites = _call_sites(["_plain_family", "_arm_projections", "moment_families", "arm_fits",
                         "row_families"])
    assert sites == {"_plain_family": {"estimation.py:moment_families",
                                       "estimation.py:plain_components"},
                     "_arm_projections": {"estimation.py:moment_families"},
                     "moment_families": {"estimation.py:row_families",
                                         "estimation.py:variance_components"},
                     "arm_fits": {"estimation.py:row_families"},
                     "row_families": {"simulation.py:_cell_families", "io.py:_group_scores",
                                      "io.py:stratum_steps"}}, sites


def test_one_array_scorer_serves_simulate_and_analyze():
    # the Wald and FAR sets of many rows are made in one place, the shared
    # scorer, which the study cells (simulation) and analyze's grouped strata
    # (io) call; the one-row wald_ci and solve_quadratic_set call the same
    # kernels. A third scoring path has to change this test
    sites = _call_sites(["wald_intervals", "solve_quadratic_sets", "solve_quadratic_set",
                         "score_rows"])
    assert sites["wald_intervals"] == {"two_stage.py:score_rows",
                                       "confidence_sets.py:wald_ci"}, sites
    assert sites["solve_quadratic_sets"] == {"two_stage.py:score_rows",
                                             "confidence_sets.py:solve_quadratic_set"}, sites
    assert sites["score_rows"] == {"simulation.py:_score", "io.py:_group_scores"}, sites
    # only far_set makes a one-row inversion, so no array path can hand its
    # rows to it one at a time
    assert sites["solve_quadratic_set"] == {"confidence_sets.py:far_set"}, sites


def test_only_the_cli_writer_indents_json():
    # artefacts have one writer: cli._json_text, which calls json.dumps only
    # for the values it does not encode itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and any(kw.arg == "indent" for kw in node.keywords)):
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}:{owners[-1] if owners else '<module>'}")
    assert found == ["cli.py:_json_text"], found


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only threaded studies start a process pool; importing multiprocessing
    # costs every process 12-19 ms
    probe = "import sys, latekit.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_one_loadtxt_parse_and_one_csv_record_reader():
    # input files have one parse, np.loadtxt, and csv.reader serves only
    # io._csv_records, the record loop's source of rows
    sites = {"loadtxt": [], "reader": []}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in sites
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "csv")):
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                sites[node.attr].append(f"{path.name}:{owners[-1] if owners else '<module>'}")
    assert sites == {"loadtxt": ["io.py:_read_columns"], "reader": ["io.py:_csv_records"]}, sites


def test_sibling_imports_are_used_exported_or_tracer_bound(monkeypatch):
    # a name a module imports from a sibling (from .x import name) is used
    # there, listed in its __all__, or rebound in it by the benchmark tracer
    # (perfbench/tracing.py), which fails on a missing name; any other such
    # import is dead, such as a tracer-only import the tracer no longer binds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    bound = {(module, name) for module, name, *_ in tracing._BINDINGS}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # the package's own exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                unused += [f"{path.stem}.{name}" for name in
                           (alias.asname or alias.name for alias in node.names)
                           if name not in used | exported and (path.stem, name) not in bound]
    assert unused == [], unused
