"""The CSV reader against the record-by-record loop it replaced.

``reference_read_records`` and ``reference_read_covariates`` are the
readers as they were before parsing moved to column arrays: every cell
through ``_parse_cell``, one record at a time. ``read_records`` and
``read_covariates`` read with ``np.loadtxt`` and fall back to their own
record loop on anything it refuses; they must give the same strata, in the
same order, with the same values, and raise the same first error, on files
built to reach the fallback in every way they can.
"""
import csv
import importlib
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latekit import io
from latekit.cli import main


def reference_read_records(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = io._read_header(reader)
        for required in ("z", "w", "y"):
            if required not in header:
                raise ValueError(f"missing required column {required!r}")
        k = io._covariate_count(header)
        idx = {name: header.index(name) for name in header}
        has_stratum = "stratum" in header
        groups = {}
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row {rownum}: expected {len(header)} fields, got {len(row)}")
            key = row[idx["stratum"]].strip() if has_stratum else ""
            g = groups.setdefault(key, {"z": [], "w": [], "y": [], "x": []})
            g["z"].append(io._parse_cell(row[idx["z"]], rownum, "z", "binary"))
            g["w"].append(io._parse_cell(row[idx["w"]], rownum, "w", "binary"))
            g["y"].append(io._parse_cell(row[idx["y"]], rownum, "y", "number"))
            g["x"].append([io._parse_cell(row[idx[f"x{j + 1}"]], rownum, f"x{j + 1}",
                                          "number") for j in range(k)])
    return [(key, np.array(g["z"]), np.array(g["w"]), np.array(g["y"]),
             np.array(g["x"], dtype=float).reshape(len(g["z"]), k))
            for key, g in groups.items()]


def reference_read_covariates(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = io._read_header(reader)
        k = io._covariate_count(header)
        if k == 0:
            raise ValueError("no covariate columns x1..xK found")
        idx = [header.index(f"x{j + 1}") for j in range(k)]
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            rows.append([io._parse_cell(row[i], rownum, header[i], "number") for i in idx])
    if not rows:
        raise ValueError("no data rows in input")
    return np.array(rows, dtype=float)


def _outcome(read, path):
    try:
        return read(path), None
    except ValueError as exc:
        return None, str(exc)


def _rows(n, key=lambda i: f"s{i // 4}"):
    return [f"{key(i)},{i % 2},{(i // 2) % 2},{0.5 * i - 1:.3f},{(-1) ** i * 0.25 * i:.2f},"
            f"{i * i / 7:.6f}" for i in range(n)]


_HEADER = "stratum,z,w,y,x1,x2"

CASES = {
    "clean": [_HEADER, *_rows(11)],
    "blank_records": [_HEADER, *_rows(3), "", "   ", ",,,,,", *_rows(2), "", " \t ,  ,,,,"],
    "whole_blank_block": [_HEADER, *_rows(3), "", "", "  ", *_rows(4)],
    "trailing_blank_records": [_HEADER, *_rows(5), "", ""],
    "padded_cells": [_HEADER, *_rows(2), " s9 , 1 ,0,  2.5 ,\t-1.5\t, 1e-3", *_rows(4)],
    "binary_as_float": [_HEADER, *_rows(4), "s1,1.0,0.0,1,2,3", "s1, 1 ,0 ,1,2,3", *_rows(2)],
    "underscore_number": [_HEADER, *_rows(4), "s1,1,0,1_000,2,3", *_rows(2)],
    "nan": [_HEADER, *_rows(4), "s1,1,0,nan,2,3", *_rows(2)],
    "inf": [_HEADER, *_rows(4), "s1,1,0,1,inf,3", *_rows(2)],
    "minus_inf": [_HEADER, *_rows(4), "s1,1,0,1,2,-inf", *_rows(2)],
    "non_number": [_HEADER, *_rows(4), "s1,1,0,abc,2,3", *_rows(2)],
    "binary_two": [_HEADER, *_rows(4), "s1,1,2,1,2,3", *_rows(2)],
    "binary_word": [_HEADER, *_rows(4), "s1,yes,0,1,2,3", *_rows(2)],
    "ragged_then_bad_cell": [_HEADER, *_rows(3), "s1,1,0,1", "s1,1,0,abc,2,3", *_rows(2)],
    "bad_cell_then_ragged": [_HEADER, *_rows(3), "s1,1,0,abc,2,3", "s1,1,0,1", *_rows(2)],
    "long_row": [_HEADER, *_rows(5), "s1,1,0,1,2,3,4"],
    "bad_cell_first_in_block": [_HEADER, *_rows(3), "s1,1,0,1,2,x", *_rows(5)],
    "bad_cell_last_in_block": [_HEADER, *_rows(5), "s1,1,0,1,2,x", *_rows(3)],
    "bad_cell_first_record": [_HEADER, "s0,-1,0,1,2,3", *_rows(5)],
    "bad_z_and_y_same_record": [_HEADER, *_rows(4), "s1,5,0,abc,2,3"],
    "quoted_newline": [_HEADER, *_rows(2), '"s\n1",1,0,1,2,3', *_rows(2)],
    "quoted_newline_then_error": [_HEADER, *_rows(2), '"s\n1",1,0,1,2,3', "s1,1,0,1,2,bad"],
    "interleaved_strata": [_HEADER, *_rows(13, key=lambda i: "bcab"[i % 4])],
    "one_record_strata": [_HEADER, *_rows(7, key=lambda i: f"k{i}")],
    "no_stratum_column": ["z,w,y,x1,x2", *(r.split(",", 1)[1] for r in _rows(8))],
    "no_covariates": ["y,w,stratum,z",
                      *(f"{0.1 * i},{i % 2},{'ab'[i % 2]},{(i // 2) % 2}" for i in range(9))],
    "header_only": [_HEADER],
    "header_only_with_blanks": [_HEADER, "", ""],
    "missing_column": ["stratum,z,y,x1", "s1,1,0.5,1"],
    "crlf": "\r\n".join([_HEADER, *_rows(8)]) + "\r\n",
    "crlf_bom": "\ufeff" + "\r\n".join([_HEADER, *_rows(8)]) + "\r\n",
    "crlf_bad_cell": "\r\n".join([_HEADER, *_rows(4), "s1,1,0,1,2,x", *_rows(2)]) + "\r\n",
    "crlf_and_lf": "\r\n".join([_HEADER, *_rows(4)]) + "\r\n" + "\n".join(_rows(4)) + "\n",
    # R's write.csv: every name and key quoted, and a quoted row-name column
    "r_write_csv": [",".join(f'"{h}"' for h in ["", *_HEADER.split(",")]),
                    *(f'"{i + 1}","{r.replace(",", chr(34) + ",", 1)}'
                      for i, r in enumerate(_rows(10)))],
    "first_quote_in_third_block_then_bad_cell": [
        _HEADER, *_rows(7), '"s\n7",1,0,1,2,3', *_rows(2), "s9,1,0,1,bad,3", *_rows(2)],
    "no_final_newline": "\n".join([_HEADER, *_rows(7)]),
    "no_final_newline_crlf": "\r\n".join([_HEADER, *_rows(7)]),
    "non_ascii_keys": [_HEADER, *_rows(9, key=lambda i: ["Zürich", "東京", "ø"][i % 3])],
    "trailing_comma_everywhere": [_HEADER + ",", *(r + "," for r in _rows(8))],
    "trailing_comma_one_record": [_HEADER, *_rows(4), _rows(5)[4] + ",", *_rows(2)],
    "lone_cr_line_ends": "\r".join([_HEADER, *_rows(7)]) + "\r",
    "lone_cr_in_a_line": "\n".join([_HEADER, *_rows(4), "s1,1,0,1,2\r,3", *_rows(2)]) + "\n",
    "lone_cr_then_lf_blocks": "\r".join([_HEADER, *_rows(4)]) + "\r" + "\n".join(_rows(5)),
    # too many fields, then too few: the cells would still fill whole records
    "compensating_ragged_pair": [_HEADER, *_rows(4), "s0,1,0,1,2,3,1", "0,1,2,3,4", *_rows(2)],
    # 2 * 6 + 1 fields: the line end still falls on a record boundary
    "two_records_and_a_cell_on_one_line": [_HEADER, *_rows(4), "s1,1,0,1,2,3,9,s1,0,1,2,3,4",
                                           *_rows(2)],
    "exact_block_multiple": [_HEADER, *_rows(9)],
    "two_blocks_of_2048": [_HEADER, *_rows(4096, key=lambda i: f"s{i // 100}")],
}
CASES["crlf_binary_last"] = "\r\n".join(CASES["no_covariates"]) + "\r\n"


def _text(lines):
    """A case's file text: a string as it stands, lines each ended by \\n."""
    return lines if isinstance(lines, str) else "\n".join(lines) + "\n"


def _write(tmp_path, lines, name="in.csv"):
    f = tmp_path / name
    f.write_bytes(_text(lines).encode("utf-8"))
    return f


# Blank lines put after a case's header: loadtxt is fed none of them, and
# the record loop counts each one as a row, so a bad record far down the
# file is still named by its row.
LEAD_BLANKS = [3, 2048]


def _lead(lines, blanks):
    """A case's file text with ``blanks`` blank lines after its header
    line, each ended as the header line is."""
    text = _text(lines)
    end = re.search(r"\r\n|\n|\r", text)
    return text[:end.end()] + end.group() * blanks + text[end.end():]


def _assert_same_strata(got, want):
    assert [g.key for g in got] == [key for key, *_ in want]
    for g, (_, z, w, y, x) in zip(got, want):
        for new, old in ((g.z, z), (g.w, w), (g.y, y), (g.x, x)):
            assert new.dtype == old.dtype and new.shape == old.shape
            assert np.array_equal(new, old)


@pytest.mark.parametrize("lead", LEAD_BLANKS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_reader_matches_record_loop(tmp_path, case, lead):
    f = _write(tmp_path, _lead(CASES[case], lead))
    want, want_err = _outcome(reference_read_records, f)
    got, got_err = _outcome(io.read_records, f)
    assert got_err == want_err
    if want_err is None:
        _assert_same_strata(got, want)


def _no_loadtxt(*args, **kwargs):
    raise ValueError("refused")


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_loop_alone_matches_reference(tmp_path, monkeypatch, case):
    # the fallback reads every file loadtxt refuses, so it must give the
    # oracle's result on files loadtxt would have read too
    monkeypatch.setattr(io.np, "loadtxt", _no_loadtxt)
    f = _write(tmp_path, CASES[case])
    want, want_err = _outcome(reference_read_records, f)
    got, got_err = _outcome(io.read_records, f)
    assert got_err == want_err
    if want_err is None:
        _assert_same_strata(got, want)


def test_block_reader_error_messages(tmp_path):
    # the oracle's messages, spelled out so a shared slip cannot hide
    expected = {
        "nan": "row 6, column y: non-finite value 'nan'",
        "minus_inf": "row 6, column x2: non-finite value '-inf'",
        "binary_two": "row 6, column w: expected 0/1, got '2'",
        "ragged_then_bad_cell": "row 5: expected 6 fields, got 4",
        "bad_cell_then_ragged": "row 5, column y: expected a number, got 'abc'",
        "bad_cell_first_in_block": "row 5, column x2: expected a number, got 'x'",
        "bad_cell_last_in_block": "row 7, column x2: expected a number, got 'x'",
        # the quoted record spans lines 4-5; rows count records, not lines
        "quoted_newline_then_error": "row 5, column x2: expected a number, got 'bad'",
    }
    for case, message in expected.items():
        with pytest.raises(ValueError) as err:
            io.read_records(str(_write(tmp_path, CASES[case])))
        assert str(err.value) == message


def test_interleaved_strata_keep_first_appearance_order(tmp_path):
    f = _write(tmp_path, ["stratum,z,w,y", "b,1,0,1", "a,0,0,2", "b,0,1,3",
                          "c,1,1,4", "a,1,0,5"])
    groups = io.read_records(str(f))
    assert [(g.key, g.y.tolist()) for g in groups] == [
        ("b", [1.0, 3.0]), ("a", [2.0, 5.0]), ("c", [4.0])]


def _workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("workloads")


def test_blocks_never_hold_the_whole_file(tmp_path):
    # the file's lines stream into loadtxt: on the analyze_strata input the
    # read peaks under four times the bytes of the arrays it returns, which
    # a read of the whole text into memory first exceeds
    f = tmp_path / "strata.csv"
    _workloads().write_strata_csv(f, 20240901)
    tracemalloc.start()
    try:
        strata = io.read_records(str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for g in strata for a in (g.z, g.w, g.y, g.x))
    assert len(strata) == 200 and peak < 4 * returned


@pytest.mark.parametrize("lead", LEAD_BLANKS)
def test_first_quote_hands_the_rest_to_csv_records(tmp_path, lead):
    # the quoted record spans two lines; rows still count records
    f = _write(tmp_path, _lead(CASES["first_quote_in_third_block_then_bad_cell"], lead))
    with pytest.raises(ValueError, match=rf"^row {12 + lead}, column x1: expected a number, "
                                         r"got 'bad'$"):
        io.read_records(str(f))


def _r_quoted(text):
    """``text`` with every cell quoted, numbers too (R's write.csv quotes
    every name and key)."""
    return "".join(",".join(f'"{c}"' for c in line.split(",")) + end
                   for line, end in re.findall(r"([^\r\n]*)(\r\n|\n)", text))


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
@pytest.mark.parametrize("lead", LEAD_BLANKS)
def test_plain_files_never_reach_the_record_loop(tmp_path, monkeypatch, line_end, lead):
    lf = tmp_path / "lf.csv"
    _workloads().write_strata_csv(lf, 5, strata=12)
    rows = lf.read_text().count("\n") - 1
    loop = []
    monkeypatch.setattr(io, "_record_columns", lambda *args: loop.append(args))
    for text in (lf.read_text(), _r_quoted(lf.read_text())):
        # with a blank record of commas and one of blanks at the end
        f = _write(tmp_path, _lead(text.replace("\n", line_end), lead)
                   + f" ,,\t,{line_end}   {line_end}")
        strata = io.read_records(str(f))
        assert loop == [] and len(strata) == 12
        assert sum(len(g.z) for g in strata) == rows
        assert io.read_covariates(str(f)).shape == (rows, 3)
    # no \r is left on a last column of 0/1 cells either
    io.read_records(str(_write(tmp_path, line_end.join(CASES["no_covariates"]) + line_end)))
    assert loop == []


# Cells of every kind either parser could read differently; a seeded mix
# of them, in otherwise plain files, goes through both readers.
_ODD_KEYS = ['a"b', '"a"b', '""', '"a""b"', '" k "', '"x,y"', " s1 ", "Zürich", "\u2003k\xa0",
             "k\x00", '"k\n2"', "\x1ck", "k\r2"]
_ODD_BITS = ["1.0", " 0 ", '"1"', "-0", "1e0", "2", "yes", "", "nan", "0x1", "１", "0.5",
             "1\r"]
_ODD_NUMBERS = ['"1.5"', ' "2"', '"3" ', "\u2003 2.5\xa0", "１", "٣", "infinity", "-Infinity",
                "nan", "1_0", "0x1p3", "1e-400", "1e400", "1\x00", "+.5", "5.", ".", "", "abc",
                "\x1c7", "1\r2", '"1\n"']


def _odd_file(rng, odd):
    """A stratum file of 8 records whose cells, and line ends, are odd with
    chance ``odd``: an odd line end is a lone \\r, \\r\\n, or one followed
    by a blank line."""
    text = "stratum,z,w,y,x1,x2\n"
    for _ in range(8):
        cells = [rng.choice(_ODD_KEYS) if rng.random() < odd else rng.choice(["s0", "s1"]),
                 *(rng.choice(_ODD_BITS) if rng.random() < odd else rng.choice("01")
                   for _ in range(2)),
                 *(rng.choice(_ODD_NUMBERS) if rng.random() < odd else f"{rng.gauss(0, 1):.6g}"
                   for _ in range(3))]
        text += ",".join(cells) + (rng.choice(["\r", "\r\n", "\n \n", "\n\n"])
                                   if rng.random() < odd else "\n")
    return text


def test_readers_match_reference_on_odd_cells(tmp_path, monkeypatch):
    loop = []
    record_columns = io._record_columns
    monkeypatch.setattr(io, "_record_columns",
                        lambda *args: loop.append(args) or record_columns(*args))
    rng = random.Random(20240901)
    for i in range(600):
        text = _odd_file(rng, [0.0, 0.03, 0.3][i % 3])
        f = _write(tmp_path, text)
        want, want_err = _outcome(reference_read_records, f)
        got, got_err = _outcome(io.read_records, f)
        assert got_err == want_err, text
        if want_err is None:
            _assert_same_strata(got, want)
        if not _ragged(text):
            want, want_err = _outcome(reference_read_covariates, f)
            got, got_err = _outcome(io.read_covariates, f)
            assert got_err == want_err, text
            if want_err is None:
                assert got.dtype == want.dtype and np.array_equal(got, want)
    # the plain files, a third of the reads or more, never reach the loop
    assert 0 < len(loop) < 800


_LIMIT = csv.field_size_limit()


def _spread(text, n):
    """``n`` characters of ``text`` repeated, a line break every 1,000."""
    return ((text * 999 + "\n") * (n // 1000 + 1))[:n]


# a record's (key, y) holding a cell of n characters, as csv counts them
_LONG_CELLS = {
    # a quoted key, on lines each far under the limit
    "spread_key": lambda n: (f'"{_spread("k", n)}"', "2.5"),
    # a number padded with blanks, on one line
    "padded_number": lambda n: ("s1", " " * (n - 3) + "1.5"),
    # the same quoted, with the blanks spread over short lines
    "spread_padded_number": lambda n: ("s1", f'"{_spread(" ", n - 3)}1.5"'),
}


@pytest.mark.parametrize("case", _LONG_CELLS)
def test_cells_over_the_field_limit_name_their_row(tmp_path, case):
    def write(n):
        key, y = _LONG_CELLS[case](n)
        return _write(tmp_path, [_HEADER, *_rows(2), f"{key},1,0,{y},1,2", *_rows(2)])

    with pytest.raises(ValueError, match=rf"^row 4: field larger than field limit \({_LIMIT}\)$"):
        io.read_records(str(write(_LIMIT + 1)))
    f = write(_LIMIT)
    want, _ = _outcome(reference_read_records, f)
    _assert_same_strata(io.read_records(str(f)), want)


def test_fallback_reads_a_bom_file_from_its_header_again(tmp_path, monkeypatch):
    # the first name is quoted over two lines: were the byte-order mark
    # not skipped again after the fallback's seek(0), the quote would not
    # open the name and the header would end at its first line break
    loop = []
    record_columns = io._record_columns
    monkeypatch.setattr(io, "_record_columns",
                        lambda *args: loop.append(args) or record_columns(*args))
    header = '"\n",stratum,z,w,y,x1,x2'
    for last in ("8,s1,1,0,1_000,2,3", "9,s1,1,0,abc,2,3"):  # a float() number, a bad one
        f = _write(tmp_path, "\ufeff" + "\n".join(
            [header, *(f"{i},{r}" for i, r in enumerate(_rows(4))), last]))
        want, want_err = _outcome(reference_read_records, f)
        got, got_err = _outcome(io.read_records, f)
        assert got_err == want_err
        if want_err is None:
            _assert_same_strata(got, want)
    assert want_err == "row 6, column y: expected a number, got 'abc'"
    assert len(loop) == 2


def _random_doubles(rng, n):
    """Finite doubles of every exponent, a quarter of them subnormal."""
    bits = np.array([rng.getrandbits(64) for _ in range(n)], dtype=np.uint64)
    bits[: n // 4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # exponent 0: subnormal
    vals = bits.view(np.float64)
    return vals[np.isfinite(vals) & (np.abs(vals) < 1e308)]


def test_loadtxt_floats_are_bit_equal_to_float(tmp_path, monkeypatch):
    vals = _random_doubles(random.Random(7), 4000)
    cells = [[repr(float(v)), "%.17g" % v, "%.3e" % v] for v in vals]
    f = _write(tmp_path, ["z,w,y,x1,x2", *(f"{i % 2},{i // 2 % 2}," + ",".join(c)
                                           for i, c in enumerate(cells))])
    loop = []
    monkeypatch.setattr(io, "_record_columns", lambda *args: loop.append(args))
    (g,) = io.read_records(str(f))
    want = np.array([[float(c) for c in row] for row in cells])
    got = np.column_stack([g.y, g.x])
    assert loop == [] and got.tobytes() == want.tobytes()
    assert io.read_covariates(str(f)).tobytes() == want[:, 1:].tobytes()


def _ragged(lines):
    records = [r for r in csv.reader(_text(lines).splitlines(keepends=True))
               if any(map(str.strip, r))]
    return len(set(map(len, records))) > 1


# the covariate record loop read a ragged record as far as its cells went
# (see test_design_rejects_ragged_record): it is an oracle only without one
@pytest.mark.parametrize("lead", LEAD_BLANKS)
@pytest.mark.parametrize("case", sorted(c for c, lines in CASES.items() if not _ragged(lines)))
def test_covariate_reader_matches_record_loop_on_record_files(tmp_path, case, lead):
    f = _write(tmp_path, _lead(CASES[case], lead))
    want, want_err = _outcome(reference_read_covariates, f)
    got, got_err = _outcome(io.read_covariates, f)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype and np.array_equal(got, want)


_COVARIATE_CASES = {
    "clean": ["x1,x2", *(f"{0.1 * i:.1f},{(-1) ** i}" for i in range(10))],
    "extra_columns": ["id,x2,note,x1", *(f"u{i},{i},n,{i / 3}" for i in range(8))],
    "blank_records": ["x1,x2", "1,2", "", "  ", "3,4", ",", "5,6", "7,8"],
    "padded": ["x1,x2", " 1 , 2", "3,\t4 ", "5,6", "7,8"],
    "bad_cell": ["x1,x2", "1,2", "3,4", "5,six", "7,8"],
    "non_finite": ["x1,x2", "1,2", "3,4", "5,6", "inf,8"],
    "header_only": ["x1,x2"],
    "no_covariates": ["a,b", "1,2"],
}


@pytest.mark.parametrize("lead", LEAD_BLANKS)
@pytest.mark.parametrize("case", sorted(_COVARIATE_CASES))
def test_covariate_reader_matches_record_loop(tmp_path, case, lead):
    f = _write(tmp_path, _lead(_COVARIATE_CASES[case], lead))
    want, want_err = _outcome(reference_read_covariates, f)
    got, got_err = _outcome(io.read_covariates, f)
    assert got_err == want_err
    if want_err is None:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("rows, message", [
    (["1,2", "3"], "row 3: expected 2 fields, got 1"),
    (["1,2", "3,4,5"], "row 3: expected 2 fields, got 3"),
    (["1,2", "3,4,5,6,7"], "row 3: expected 2 fields, got 5"),
])
def test_design_rejects_ragged_record(tmp_path, capsys, rows, message):
    # the record loop indexed past a short record (IndexError) and read a long one
    f = _write(tmp_path, ["x1,x2", *rows])
    assert main(["design", "--input", str(f), "--mode", "cre",
                 "--out", str(tmp_path / "d.txt")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
