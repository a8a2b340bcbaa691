"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latekit"


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
