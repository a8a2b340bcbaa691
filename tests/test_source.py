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
    # one path takes a dataset to estimates and variance families, the
    # family builder (estimation), whose row_families refits the rows its
    # arm fits leave unsure; analyze's scorer (io), which two_stage_set
    # also runs, calls it for a file of one stratum
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
    assert callers == {"estimation.py"}, callers



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
    # estimation.row_families, with three callers through two call sites:
    # the study cells (simulation), and analyze's files and two_stage_set's
    # file of one stratum, both by io.score_groups. It alone calls the arm
    # kernel, the moment families and the arm fits, but for
    # variance_components' one-row moment families. A second moment path or
    # family builder has to change these lists.
    kernel = _callers(["_arm_moments", "_plain_arm", "_with_covariates"])
    assert kernel == {"_arm_moments": {"estimation.py"}, "_plain_arm": {"stats_core.py"},
                      "_with_covariates": {"stats_core.py"}}, kernel
    sites = _call_sites(["_arm_projections", "moment_families", "arm_fits", "row_families"])
    assert sites == {"_arm_projections": {"estimation.py:moment_families"},
                     "moment_families": {"estimation.py:row_families",
                                         "estimation.py:variance_components"},
                     "arm_fits": {"estimation.py:row_families"},
                     "row_families": {"simulation.py:_cell_families", "io.py:score_groups"}
                     }, sites


def test_one_array_scorer_serves_simulate_and_analyze():
    # the Wald and FAR sets of many rows are made in one place, the shared
    # scorer, which the study cells (simulation) and analyze's strata, in
    # groups or alone (io), call; the one-row wald_ci, far_set
    # and first_stage_test read their step of its one-row call, one_row_step,
    # and solve_quadratic_set is the inverter's one-row call. A second
    # scoring path has to change this test
    sites = _call_sites(["wald_intervals", "solve_quadratic_sets", "solve_quadratic_set",
                         "score_rows", "one_row_step"])
    assert sites["wald_intervals"] == {"two_stage.py:score_rows"}, sites
    assert sites["solve_quadratic_sets"] == {"two_stage.py:score_rows",
                                             "confidence_sets.py:solve_quadratic_set"}, sites
    assert sites["score_rows"] == {"simulation.py:_score", "io.py:score_groups",
                                   "two_stage.py:one_row_step"}, sites
    assert sites["one_row_step"] == {"confidence_sets.py:wald_ci", "confidence_sets.py:far_set",
                                       "two_stage.py:first_stage_test"}, sites
    # no array path hands its rows to a one-row inversion
    assert sites["solve_quadratic_set"] == set(), sites


def test_io_scores_every_stratum_by_one_call_of_each_step():
    # analyze's files, a stratum handed no row and two_stage_set's dataset
    # are all checked, given families and scored by io.score_groups, which
    # makes each call once in its source, a file whose call raises
    # LinAlgError rebuilt stratum by stratum by the same call; a second
    # stratum path has to change this test
    tree = ast.parse((SRC / "io.py").read_text())
    counts = {name: 0 for name in ("check_rows", "row_families", "score_rows")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in counts:
            counts[node.func.id] += 1
    assert counts == {"check_rows": 1, "row_families": 1, "score_rows": 1}, counts
    sites = _call_sites(["check_rows"])
    assert sites == {"check_rows": {"io.py:score_groups", "data_model.py:validate"}}, sites


def test_f_threshold_is_compared_in_one_place():
    # one decision per first-stage step: score_rows' strong masks, which
    # RowScores.step and the study scorer read, and the one-row f_screen all
    # take the F screen's decision from one comparison with F_THRESHOLD, in
    # the function that computes the statistic
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Name) and n.id == "F_THRESHOLD" for n in ast.walk(node)):
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}:{owners[-1] if owners else '<module>'}")
    assert found == ["two_stage.py:_statistics"], found


def test_only_score_rows_computes_critical_values():
    # one critical-value path: outside the mixture module that defines them,
    # only two_stage.score_rows calls the normal and mixture quantiles, for
    # all of its rows at once; no one-row procedure has a chain of its own
    names = ("normal_quantile", "lambda_quantiles", "lambda_quantile")
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mixture.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:  # calls in nested functions count for their outermost
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id",
                                                                                     None)
                    if name in names:
                        found.add(f"{path.name}:{getattr(top, 'name', '<module>')}:{name}")
    assert found == {"two_stage.py:score_rows:normal_quantile",
                     "two_stage.py:score_rows:lambda_quantiles"}, found


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


def test_analyze_and_simulate_read_the_method_table():
    # the reported methods are the rows of two_stage.METHODS: the modules
    # that report them name no F > 10 comparator themselves
    for name in ("io.py", "simulation.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        named = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and node.value in ("ts_f10", "wald_f10")]
        assert named == [], name
    io, simulation, two_stage = (importlib.import_module(f"latekit.{name}")
                                 for name in ("io", "simulation", "two_stage"))
    assert io.ALL_METHODS == tuple(two_stage.METHODS)
    # a study reports them in the table's order, ts once per gamma in its place
    assert simulation._method_names((0.075, 0.025)) == [
        "wald", "far", "ts_gamma_0.075", "ts_gamma_0.025", "ts_f10", "wald_f10"]
    for gammas in ((), (0.025,), (0.1, 0.05, 0.01)):
        names = iter(simulation._method_names(gammas))
        assert [[next(names) for _ in gammas] if m == "ts" else next(names)
                for m in two_stage.METHODS] == [
            [f"ts_gamma_{g:g}" for g in gammas] if m == "ts" else m for m in two_stage.METHODS]
        assert next(names, None) is None
