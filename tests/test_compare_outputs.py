"""The artefact comparison of tools/compare_outputs.py on crafted bytes."""
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench on it
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
