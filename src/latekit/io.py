"""CSV ingestion, per-stratum analysis, and report emission.

Input files carry one experimental record per row with required columns
``z``, ``w``, ``y``, optional covariate columns ``x1..xK``, and an optional
``stratum`` key. Each stratum is treated as its own finite population: its
outcome and covariates are centred within it and every requested method runs
on it independently.

The records are parsed by one ``np.loadtxt`` call fed the file's lines. A
file it refuses, or whose records fail the 0/1, finiteness or one-line
checks, is read again by the record loop over ``csv.reader``, which also
takes the Python ``float`` spellings ``loadtxt`` does not and quoted line
breaks, and names the row and column of the first bad record.

``analyze_file`` scores a file in one pass over its columns, the strata one
after another (``Strata``), centred by one reduction per stratum size.
``score_groups``, the one path from strata to their scores, validates them
by one ``check_rows`` call, builds their families by one
``estimation.row_families`` call and scores them all by one
``two_stage.score_rows`` call, as study cells' are. Inside those calls only
the floating-point reductions are grouped, each by its own length
(``data_model.by_length``), so every stratum keeps its one-stratum bits.
``two_stage_set``'s dataset, and a stratum ``analyze_stratum`` is handed no
row for, are a file of one stratum.
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confidence_sets import json_number
from .data_model import (AnalysisConfig, Dataset, DesignSpec, by_length, check_rows,
                         column_sums, messages, stratum_offsets)
from .estimation import Estimates, regime_spec, row_families
from .exceptions import InvalidDatasetError, LatekitError, unstored
from .two_stage import METHODS, Method, score_rows

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .confidence_sets import far_set, wald_ci
from .estimation import variance_components
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import f_screen, first_stage_test

ALL_METHODS = tuple(METHODS)


@dataclass
class StratumRecords:
    """One stratum's rows, as array slices of the parsed file's columns."""

    key: str
    z: np.ndarray  # int64
    w: np.ndarray  # int64
    y: np.ndarray  # float64
    x: np.ndarray  # float64, (rows, K)


def _parse_cell(raw: str, row: int, col: str, kind: str):
    raw = raw.strip()
    if kind == "binary":
        if raw in ("0", "1"):
            return int(raw)
        try:
            val = float(raw)
        except ValueError:
            raise ValueError(f"row {row}, column {col}: expected 0/1, got {raw!r}")
        if val in (0.0, 1.0):
            return int(val)
        raise ValueError(f"row {row}, column {col}: expected 0/1, got {raw!r}")
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"row {row}, column {col}: expected a number, got {raw!r}")
    if not math.isfinite(val):
        raise ValueError(f"row {row}, column {col}: non-finite value {raw!r}")
    return val


def _csv_records(lines, first_row: int):
    """The records ``csv.reader`` reads from ``lines``, row ``first_row``
    first; its error, such as a cell over its field size limit, becomes a
    ValueError naming the row."""
    row = first_row
    try:
        for record in csv.reader(lines):
            yield record
            row += 1
    except csv.Error as exc:
        raise ValueError(f"row {row}: {exc}") from None


def _read_header(reader) -> list[str]:
    """The stripped header row; a repeated column name is an error."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError("empty input file")
    named = [h for h in header if h]
    for name in named:
        if named.count(name) > 1:
            raise ValueError(f"duplicate column {name!r} in header")
    return header


def _covariate_count(header: list[str]) -> int:
    """K for covariate columns x1..xK; a gap in the numbering is an error."""
    numbers = {int(h[1:]) for h in header
               if h[:1] == "x" and h[1:].isdecimal() and h[1:2] != "0"}
    for j in range(1, len(numbers) + 1):
        if j not in numbers:
            found = ", ".join(f"x{i}" for i in sorted(numbers))
            raise ValueError(f"missing covariate column 'x{j}' (header has {found})")
    return len(numbers)


def _record_columns(records, width, fields, key_col):
    """The record loop: parses record by record from row 2, skips blank
    records and raises the first bad record's error, naming its row and
    column."""
    keys, values = [], [[] for _ in fields]
    for rownum, row in enumerate(records, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ValueError(f"row {rownum}: expected {width} fields, got {len(row)}")
        if key_col is not None:
            keys.append(row[key_col].strip())
        for (i, name, kind), vals in zip(fields, values):
            vals.append(_parse_cell(row[i], rownum, name, kind))
    out = [np.array(vals, dtype=np.int64 if kind == "binary" else np.float64)
           for (_, _, kind), vals in zip(fields, values)]
    return (None if key_col is None else keys), out


def _read_columns(fh, width: int, fields, key_col: int | None = None):
    """The records after the header of the open file ``fh``, as the
    stripped keys of column ``key_col`` (None without one) and one array
    per field.

    ``fields`` lists ``(index, name, kind)`` in the order a record's cells
    are checked; ``kind`` is "binary" (int64 0/1) or "number" (finite
    float64). ``np.loadtxt`` reads the lines, with float64 for the fields
    and ``object`` for every other column, so it refuses a record with
    other than ``width`` fields. Its columns are kept only if every record
    sat on one line, which keeps each cell within ``csv``'s field size
    limit once every line is, and every cell passes its field's check.
    Otherwise the record loop reads the file again from its start, and
    returns the same columns or raises the error naming the row (counting
    records, with the header as row 1) and the column.
    """
    limit = csv.field_size_limit()
    count = 0

    def lines():
        nonlocal count
        for line in fh:
            if len(line) > limit:
                raise ValueError("a line over the field size limit")
            # a line of blanks and commas is a blank record, which the
            # record loop skips too; loadtxt would refuse its empty cells
            if line.strip(" \t\r\n,"):
                count += 1
                yield line

    numeric = {i for i, _, _ in fields}
    dtype = [(f"f{i}", np.float64 if i in numeric else object) for i in range(width)]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines(), dtype=dtype, delimiter=",", comments=None,
                               quotechar='"', ndmin=1)
    except ValueError:  # a record loadtxt refuses, or a line too long
        table = None
    if table is not None and len(table) == count:
        cols = [table[f"f{i}"] for i, _, _ in fields]
        if all(np.isin(col, (0, 1)).all() if kind == "binary" else np.isfinite(col).all()
               for col, (_, _, kind) in zip(cols, fields)):
            keys = None if key_col is None else list(map(str.strip, table[f"f{key_col}"]))
            return keys, [col.astype(np.int64 if kind == "binary" else np.float64)
                          for col, (_, _, kind) in zip(cols, fields)]
    fh.seek(0)
    records = itertools.islice(_csv_records(fh, 1), 1, None)  # after the header
    return _record_columns(records, width, fields, key_col)


def read_records(path: str) -> list[StratumRecords]:
    """Parse an analysis CSV into per-stratum record groups (input order)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = _read_header(_csv_records(fh, 1))
        for required in ("z", "w", "y"):
            if required not in header:
                raise ValueError(f"missing required column {required!r}")
        k = _covariate_count(header)
        names = ["z", "w", "y", *(f"x{j + 1}" for j in range(k))]
        fields = [(header.index(name), name, "binary" if name in ("z", "w") else "number")
                  for name in names]
        key_col = header.index("stratum") if "stratum" in header else None
        keys, (z, w, y, *xs) = _read_columns(fh, len(header), fields, key_col)
    if not len(z):
        return []
    # a stratum's code is the record count before its first appearance,
    # so ordering by code groups the strata in input order
    first: dict[str, int] = {}
    keys = itertools.repeat("", len(z)) if keys is None else keys
    code = np.fromiter(map(first.setdefault, keys, itertools.count()),
                       dtype=np.int64, count=len(z))
    x = np.column_stack(xs) if xs else np.empty((len(z), 0))
    if (code[1:] < code[:-1]).any():  # interleaved strata: gather each one's rows
        order = np.argsort(code, kind="stable")
        code, z, w, y, x = code[order], z[order], w[order], y[order], x[order]
    bounds = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), len(code)]
    return [StratumRecords(key=key, z=z[lo:hi], w=w[lo:hi], y=y[lo:hi], x=x[lo:hi])
            for key, lo, hi in zip(first, bounds, bounds[1:])]


class Strata(NamedTuple):
    """Strata one after another: their (N,) columns ``z``, ``w``, ``y``,
    (N, K) covariates ``x`` centred within each, each stratum's (K,)
    covariate means ``offsets`` (see validate) and its unit count."""

    z: np.ndarray
    w: np.ndarray
    y: np.ndarray
    x: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray


def _centred(strata: list[StratumRecords]) -> Strata:
    """The file's strata with each one's y and covariates centred, by one
    reduction per stratum size (by_length), the covariates with center_covariates'
    bits; a stratum whose centred y is not finite keeps its y, for check_rows to skip."""
    lengths = np.array([len(records.z) for records in strata])
    starts = lengths.cumsum() - lengths
    z, w, y, x = map(np.concatenate, zip(*((r.z, r.w, r.y, r.x) for r in strata)))
    y_sums, means = np.empty(len(strata)), np.empty((len(strata), x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # a y sum past the largest double
        for rows, idx in by_length(starts, lengths):
            y_sums[rows] = np.add.reduce(y[idx], axis=1)
            means[rows] = column_sums(x, idx)
        centred = y - (y_sums / lengths).repeat(lengths)
    kept = np.logical_and.reduceat(np.isfinite(centred), starts).repeat(lengths)
    means /= lengths[:, None]  # center_covariates' arithmetic, stratum by stratum
    x -= means.repeat(lengths, axis=0)  # x is the file's own copy
    return Strata(z, w, np.where(kept, centred, y), x, means, lengths)


def score_groups(strata: Strata, config: AnalysisConfig, gammas: tuple[float, ...]) -> list:
    """For every stratum: its row of one score_rows call at ``gammas`` as
    ``(estimates, scores, row)``, or else validate's InvalidDatasetError,
    ValueError under ReM without covariates, its fits' or families' error,
    or InvalidDatasetError for non-finite families. One check_rows and one
    row_families call cover the strata, whose reductions are grouped by
    length, so a stratum has its one-stratum bits and the call raises
    LinAlgError exactly when a stratum alone would."""
    spec = regime_spec(config.regime)
    z, w, y, x, offsets, lengths = strata
    bounds = [0, *itertools.accumulate(lengths.tolist())]
    checks = check_rows(z, w, y, x, offsets, lengths)
    failed = np.logical_or.reduce(checks[0])
    out = [InvalidDatasetError("; ".join(messages(checks, r, z[lo:hi], w[lo:hi]))) if bad else None
           for r, (bad, lo, hi) in enumerate(zip(failed.tolist(), bounds, bounds[1:]))]
    if spec.mixture and not x.shape[-1]:
        return [exc or ValueError("rerandomization family needs covariates") for exc in out]
    rows = (~failed).nonzero()[0].tolist()
    if not rows:
        return out
    tau_y, tau_w, families, errors = row_families(z, np.array([y, w]), x, config, lengths[rows],
                                                  np.array(bounds)[rows])
    keep = np.logical_and.reduce(np.isfinite([families[name] for name in spec.reads]), axis=(0, 1))
    for i in itertools.compress(rows, ~keep):
        out[i] = InvalidDatasetError("variance estimates are not finite")
    for r, exc in errors.items():
        out[rows[r]], keep[r] = exc, False
    rows = list(itertools.compress(rows, keep))
    tau_y, tau_w = tau_y[keep], tau_w[keep]
    families = {name: tuple(v[keep] for v in f) for name, f in families.items()}
    scores = score_rows(config.regime, tau_y, tau_w, families, config, x.shape[-1], gammas)
    for row, (i, *pair) in enumerate(zip(rows, tau_y.tolist(), tau_w.tolist())):
        out[i] = (Estimates(*pair), scores, row)
    return out


def score_stratum(ds: Dataset, config: AnalysisConfig, offsets: np.ndarray = ()):
    """score_groups of ``ds`` alone at config.gamma; ``offsets`` as in validate."""
    return score_groups(Strata(ds.z, ds.w, ds.y, ds.x, stratum_offsets(offsets, ds.k),
                               np.array([ds.n])), config, (config.gamma,))[0]


def stratum_steps(scored, config: AnalysisConfig):
    """One stratum's estimates and a getter that reads each step (see RowScores.step)
    at most once from its score_groups row, or a copy of its error raised."""
    if isinstance(scored, Exception):
        raise unstored(scored)
    estimates, scores, row = scored
    return estimates, functools.cache(lambda step: scores.step(row, step, config.regime,
                                                               config.gamma))


def _method_entry(method: Method, estimates: Estimates, get) -> dict:
    """A METHODS row's report entry from a stratum's steps: the ratio estimate
    beside a Wald set without a first stage, else the first stage, then the
    branch between two sets, and the set or a weak first stage's skip."""
    if method.first_stage is None:
        estimate = {"estimate": json_number(estimates.ratio)} if method.strong == "wald" else {}
        return {**estimate, "set": get(method.strong).to_json_dict()}
    fs = get(method.first_stage)
    entry = {"first_stage": fs.to_json_dict()}
    chosen = method.strong if fs.strong else method.weak
    if chosen is None:  # no weak set: the F > 10 comparator's skip
        return {**entry, "skipped": "first-stage F <= 10"}
    if method.weak is not None:
        entry["branch"] = chosen
    return {**entry, "set": get(chosen).to_json_dict()}


def analyze_stratum(ds: Dataset, methods: tuple[str, ...], config: AnalysisConfig,
                    offsets: np.ndarray = (), scored=None) -> dict:
    """Every requested method on one stratum, or an explicit skip reason;
    ``offsets`` are the covariate means its centering removed (see
    validate), ``scored`` its score_groups row, else it is scored alone."""
    try:
        estimates, get = stratum_steps(
            score_stratum(ds, config, offsets) if scored is None else scored, config)
        out = {m: _method_entry(METHODS[m], estimates, get) for m in methods}
    except LatekitError as exc:
        # invalid data, degenerate covariates, or a set that cannot be
        # inverted (a zero first stage and a significant outcome gap) skips
        # the stratum and must not take down the run
        return {"skipped": str(exc)}
    return {"tau_w_hat": json_number(estimates.tau_w),
            "tau_y_hat": json_number(estimates.tau_y),
            "est_compliers": json_number(ds.n * estimates.tau_w), "methods": out}


def analyze_file(path: str, *, methods: tuple[str, ...] = ALL_METHODS,
                 adjustment: str = "none", design: str = "cre",
                 p_a: float | None = None, alpha: float = 0.05,
                 gamma: float = 0.075, p_plus: float = 0.01) -> dict:
    """Per-stratum analysis report for a records file; ``methods`` names
    ALL_METHODS entries, at least one and each once, or ValueError says so."""
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"--methods names no method; choose from {ALL_METHODS}")
    for i, m in enumerate(methods):
        if m not in ALL_METHODS:
            raise ValueError(f"--methods: unknown method {m!r}; choose from {ALL_METHODS}")
        if m in methods[:i]:
            raise ValueError(f"--methods lists {m!r} twice")
    strata = read_records(path)
    if not strata:
        raise ValueError("no data rows in input")
    k = strata[0].x.shape[1]  # the header's x1..xK count
    if (design == "rem" or adjustment != "none") and k == 0:
        raise ValueError("covariate columns x1..xK are required for "
                         "rerandomization analysis or regression adjustment")
    if design == "rem":
        if p_a is None:
            raise ValueError("--pa is required with --design rem")
        spec = DesignSpec.rem(n1=1, p_a=p_a, k=k)
    elif p_a is not None:
        raise ValueError("--pa applies only with --design rem")
    else:
        spec = DesignSpec.cre(1)
    # the analysis reads the design's kind and threshold, not its arm size
    config = AnalysisConfig(alpha=alpha, gamma=gamma, p_plus=p_plus,
                            adjustment=adjustment, design=spec)

    # every stratum is scored in one pass; analyze_stratum makes each entry
    centred = _centred(strata)
    scored = score_groups(centred, config, (gamma,) if "ts" in methods else ())
    z, w, y, x, offsets, lengths = centred
    bounds = [0, *itertools.accumulate(lengths.tolist())]

    entries = []
    for records, means, handed, lo, hi in zip(strata, offsets, scored, bounds, bounds[1:]):
        ds = Dataset(z[lo:hi], w[lo:hi], y[lo:hi], x[lo:hi])
        n1 = ds.n1
        entry = {"stratum": records.key, "n": ds.n, "n1": n1, "n0": ds.n - n1}
        if k:
            entry["covariate_means"] = [float(m) for m in means]
        entry.update(analyze_stratum(ds, methods, config, means, handed))
        entries.append(entry)
    return {
        "settings": {"methods": list(methods), "adjustment": adjustment,
                     "design": design, "p_a": p_a, "alpha": alpha,
                     "gamma": gamma, "p_plus": p_plus},
        "strata": entries,
    }


def plot_data_rows(report: dict) -> list[dict]:
    """Flatten a report into set-length-versus-compliers plot rows."""
    rows = []
    for entry in report["strata"]:
        if "skipped" in entry:
            continue
        for method, res in entry["methods"].items():
            row = {"stratum": entry["stratum"], "n": entry["n"],
                   "est_compliers": entry["est_compliers"], "method": method}
            row["length"] = res["set"]["length"] if "set" in res else ""
            fs = res.get("first_stage")
            row["strong"] = "" if fs is None else str(bool(fs["strong"])).lower()
            rows.append(row)
    return rows


_PLOT_FIELDS = ("stratum", "n", "est_compliers", "method", "length", "strong")


def write_plot_data(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_PLOT_FIELDS)
        writer.writerows(map(operator.itemgetter(*_PLOT_FIELDS), rows))


def read_covariates(path: str) -> np.ndarray:
    """Covariate matrix (x1..xK columns) from a CSV, for design draws."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = _read_header(_csv_records(fh, 1))
        k = _covariate_count(header)
        if k == 0:
            raise ValueError("no covariate columns x1..xK found")
        fields = [(header.index(f"x{j + 1}"), f"x{j + 1}", "number") for j in range(k)]
        _, columns = _read_columns(fh, len(header), fields)
    if not len(columns[0]):
        raise ValueError("no data rows in input")
    return np.column_stack(columns)
