"""CSV ingestion, per-stratum analysis, and report emission.

Input files carry one experimental record per row with required columns
``z``, ``w``, ``y``, optional covariate columns ``x1..xK``, and an optional
``stratum`` key. Each stratum is treated as its own finite population:
covariates are centered within it and every requested method runs on it
independently.

The records are parsed by one ``np.loadtxt`` call fed the file's lines. A
file it refuses, or whose records fail the 0/1, finiteness or one-line
checks, is read again by the record loop over ``csv.reader``, which also
takes the Python ``float`` spellings ``loadtxt`` does not and quoted line
breaks, and names the row and column of the first bad record.

``analyze_file`` groups the strata by size and treated count straight from
the parsed columns. Each group's columns are stacked once and its
covariates centred by one reduction; it is validated by one ``check_rows``
call and its families built by one ``estimation.row_families`` call, and
every group's rows are scored at once by ``two_stage.score_rows``, as
study cells' are. A stratum left out of that pass, and ``two_stage_set``'s
one stratum, take the one-row path of ``stratum_steps``: a one-row
``row_families`` call under every regime, then a one-row ``score_rows``
call, whose row its steps read as they read a group's.
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .confidence_sets import json_number
from .data_model import AnalysisConfig, Dataset, DesignSpec, check_rows, validate
from .estimation import Estimates, regime_spec, row_families, stack_families
from .exceptions import InvalidDatasetError, LatekitError
from .two_stage import TwoStageOutput, score_rows

# not called here: the benchmark tracer (perfbench/tracing.py) rebinds these
# names in this module by name, and fails on a name that is missing
from .confidence_sets import far_set, wald_ci
from .estimation import variance_components
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import f_screen, first_stage_test

ALL_METHODS = ("wald", "far", "ts", "ts_f10", "wald_f10")


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


def _group_scores(strata: list[StratumRecords], config: AnalysisConfig, k: int,
                  gammas: tuple[float, ...]) -> tuple[list, list]:
    """Each stratum's Dataset, its covariates centred, and their means; and
    what analyze_file hands analyze_stratum for it: for a stratum check_rows
    accepts, ``(estimates, scores, row)``, its row of one score_rows call, or
    the error its fits or families raise (a singular full covariance first).
    None for the rest, non-finite families and a group whose stacked
    factoring raises. Strata of one (n, n1) are stacked once from the file's
    columns, centred, checked and given families by one check_rows and one
    row_families call, which reduce row by row, so a row has its one-row
    bits; each Dataset is a view of its group's rows."""
    spec = regime_spec(config.regime)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, records in enumerate(strata):
        groups.setdefault((len(records.z), int(records.z.sum())), []).append(i)
    datasets, out = [None] * len(strata), [None] * len(strata)
    scored, built = [], []  # the strata of every group, and its row_families result
    for (n, _), members in groups.items():
        z, w, y, x = (np.stack([getattr(strata[i], a) for i in members]) for a in "zwyx")
        means = np.add.reduce(x, axis=1) / n  # center_covariates' arithmetic, row by row
        x -= means[:, None]
        for row, i in enumerate(members):
            datasets[i] = Dataset(z[row], w[row], y[row], x[row]), means[row]
        passed = ~np.logical_or.reduce(check_rows(z, w, y, x, means)[0])
        if not passed.any():
            continue
        try:
            built.append(row_families(z[passed], np.stack([y[passed], w[passed]]), x[passed],
                                      config))
        except np.linalg.LinAlgError:
            continue
        scored += itertools.compress(members, passed)
    if not built:
        return datasets, out
    tau_y, tau_w, families, errors = stack_families(built)
    keep = _finite_rows(families, spec)
    for r, exc in errors.items():
        out[scored[r]], keep[r] = exc, False
    scored, tau_y, tau_w = np.array(scored)[keep], tau_y[keep], tau_w[keep]
    scores = score_rows(config.regime, tau_y, tau_w, {name: tuple(v[keep] for v in f)
                                                      for name, f in families.items()},
                        config, k, gammas)
    for row, (i, *pair) in enumerate(zip(scored.tolist(), tau_y.tolist(), tau_w.tolist())):
        out[i] = (Estimates(*pair), scores, row)
    return datasets, out


def _finite_rows(families: dict, spec) -> np.ndarray:
    """Whether each row's families the steps read are finite: extreme data
    can overflow them, giving sets nan endpoints."""
    read = dict.fromkeys((spec.family, spec.screen_family, *(("proj",) if spec.mixture else ())))
    return np.isfinite([families[name] for name in read]).all(axis=(0, 1))


def stratum_steps(ds: Dataset, config: AnalysisConfig, offsets: np.ndarray = (),
                  moments=None):
    """One stratum's estimates and a getter that reads each of its steps
    ("wald", "far", "ts", "ts_f10") at most once from a row of score_rows,
    raising the row's stored error; ``offsets`` as in validate. ``moments``,
    from analyze_file's group pass, is an error or that row; without it
    validate, a one-row row_families call and a one-row score_rows call
    make it. Invalid data or non-finite variance families raise
    InvalidDatasetError; ReM without covariates raises ValueError."""
    regime = config.regime
    if isinstance(moments, LatekitError):
        raise moments
    if moments is None:
        problems = validate(ds, offsets)
        if problems:
            raise InvalidDatasetError("; ".join(problems))
        spec = regime_spec(regime)
        if spec.mixture and not ds.k:
            raise ValueError("rerandomization family needs covariates")
        tau_y, tau_w, families, errors = row_families(
            ds.z[None], np.stack([ds.y, ds.w])[:, None], ds.x[None], config)
        if errors:
            raise errors[0]
        if not _finite_rows(families, spec):
            raise InvalidDatasetError("variance estimates are not finite")
        moments = (Estimates(float(tau_y[0]), float(tau_w[0])),
                   score_rows(regime, tau_y, tau_w, families, config, ds.k, (config.gamma,)), 0)
    estimates, scores, row = moments
    return estimates, functools.cache(lambda step: scores.step(row, step, regime, config.gamma))


def analyze_stratum(ds: Dataset, methods: tuple[str, ...], config: AnalysisConfig,
                    offsets: np.ndarray = (), moments=None) -> dict:
    """Every requested method on one stratum, or an explicit skip reason;
    ``offsets`` are the covariate means its centering removed (see
    validate), and ``moments``, the stratum's scored row from analyze_file's
    group pass, is passed on to stratum_steps."""
    try:
        estimates, get = stratum_steps(ds, config, offsets, moments)
        out: dict = {}
        for m in methods:
            if m == "wald":
                out[m] = {"estimate": json_number(estimates.ratio),
                          "set": get("wald").to_json_dict()}
            elif m == "far":
                out[m] = {"set": get("far").to_json_dict()}
            elif m in ("ts", "ts_f10"):
                fs = get(m)
                branch = "wald" if fs.strong else "far"
                out[m] = TwoStageOutput(fs, get(branch), branch).to_json_dict()
            elif m == "wald_f10":
                fs = get("ts_f10")
                entry = {"first_stage": fs.to_json_dict()}
                if fs.strong:
                    entry["set"] = get("wald").to_json_dict()
                else:
                    entry["skipped"] = "first-stage F <= 10"
                out[m] = entry
            else:
                raise ValueError(f"unknown method: {m!r}")
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
    """Per-stratum analysis report for a records file."""
    strata = read_records(path)
    if not strata:
        raise ValueError("no data rows in input")
    k = strata[0].x.shape[1]  # the header's x1..xK count
    if design == "rem" or adjustment != "none":
        if k == 0:
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

    # the group pass centres, validates and scores the strata by size; then
    # analyze_stratum assembles each entry from its row (None: the one-row path)
    gammas = (gamma,) if "ts" in methods else ()
    datasets, handed = _group_scores(strata, config, k, gammas)

    entries = []
    for records, (ds, means), row in zip(strata, datasets, handed):
        n1 = ds.n1
        entry = {"stratum": records.key, "n": ds.n, "n1": n1, "n0": ds.n - n1}
        if k:
            entry["covariate_means"] = [float(m) for m in means]
        entry.update(analyze_stratum(ds, methods, config, means, row))
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
            if "set" in res:
                length = res["set"]["length"]
                row["length"] = length if length == "inf" else float(length)
            else:
                row["length"] = ""
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
