"""CSV ingestion, per-stratum analysis, and report emission.

Input files carry one experimental record per row with required columns
``z``, ``w``, ``y``, optional covariate columns ``x1..xK``, and an optional
``stratum`` key. Each stratum is treated as its own finite population:
covariates are centered within it and every requested method runs on it
independently.
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .confidence_sets import far_set, json_number, wald_ci
from .data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates, validate
from .estimation import Estimates, plain_components, regime_spec, variance_components
from .exceptions import InvalidDatasetError, LatekitError
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import TwoStageOutput, f_screen, first_stage_test

ALL_METHODS = ("wald", "far", "ts", "ts_f10", "wald_f10")


@dataclass
class StratumRecords:
    """One stratum's rows, as array slices of the parsed file's columns."""

    key: str
    z: np.ndarray  # int64
    w: np.ndarray  # int64
    y: np.ndarray  # float64
    x: np.ndarray  # float64, (rows, K)


# Records parsed per block: each block's columns convert in one call each
# while only one block of raw rows is held in memory.
_BLOCK_ROWS = 2048
_BITS = frozenset(("0", "1"))


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


def _columns(flat, stride, fields, key_col):
    """The columns of a block whose cells lie record by record in ``flat``,
    ``stride`` apart, converted whole, or None if a cell is irregular.

    Regular means: every binary cell is exactly "0" or "1", and every number
    parses and is finite.
    """
    out = []
    for i, _, kind in fields:
        col = flat[i::stride]
        if kind == "binary":
            if not _BITS.issuperset(col):
                return None
            bits = np.frombuffer("".join(col).encode("ascii"), dtype=np.uint8)
            out.append((bits == ord("1")).astype(np.int64))
        else:
            try:
                arr = np.fromiter(map(float, col), dtype=np.float64, count=len(col))
            except ValueError:
                return None
            if not np.isfinite(arr).all():
                return None
            out.append(arr)
    keys = None if key_col is None else list(map(str.strip, flat[key_col::stride]))
    return keys, out


def _fast_block(lines, width, fields, key_col):
    r"""A block of raw lines split on commas and converted whole, or None if
    a line is not a plain record: one with a quote, other than ``width``
    fields or an irregular cell, one ended by a lone ``\r``, or one longer
    than ``csv``'s field size limit (which ``csv.reader`` then judges).

    Every line ends in ``\n`` or ``\r\n`` but the file's last, which may
    end in neither or in ``\r``. A lone ``\r`` ending an earlier line
    leaves that line without a ``\n``, so its block fails the field count.
    """
    text = "".join(lines)
    if '"' in text:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if not text.endswith("\n"):
        text += "\n"
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    # every line end becomes a cell of its own: the lines have ``width``
    # fields each exactly when there are (width + 1) cells per line and the
    # line ends fill every (width + 1)-th cell. Either alone is not enough:
    # a line of 2 * width + 1 fields puts its end in a slot, and a short
    # line after a long one keeps the total.
    flat = text.replace("\n", ",\n,").split(",")
    del text, flat[-1]
    stride = width + 1
    if (len(flat) != stride * len(lines)
            or flat[width::stride].count("\n") != len(lines)):
        return None
    return _columns(flat, stride, fields, key_col)


def _record_block(rows, width, fields, key_col):
    """A block of csv records converted whole, or None if a record does not
    have ``width`` fields or a cell is irregular."""
    if set(map(len, rows)) != {width}:
        return None
    return _columns(list(itertools.chain.from_iterable(rows)), width, fields, key_col)


def _slow_block(rows, first_row, width, fields, key_col):
    """A block parsed record by record: skips blank records and raises the
    first bad record's error, naming its row and column."""
    keys, values = [], [[] for _ in fields]
    for rownum, row in enumerate(rows, start=first_row):
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


def _column_blocks(lines, width: int, fields, key_col: int | None = None):
    """Parse the lines after the header in blocks of ``_BLOCK_ROWS``.

    ``fields`` lists ``(index, name, kind)`` in the order a record's cells
    are checked; ``kind`` is "binary" or "number". Yields per block the
    stripped keys of column ``key_col`` (None without one) and one array
    per field. Record numbers count the header as row 1.

    Without quotes a line is a record, so blocks of lines are split on
    commas; a block that is not plain is parsed by ``csv.reader`` record by
    record. A quote can open a field that spans lines, so the first block
    with one and every line after it go to one ``csv.reader``, whose
    records are converted in blocks the same way.
    """
    first_row = 2
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        parsed = _fast_block(block, width, fields, key_col)
        if parsed is None and any('"' in line for line in block):
            break
        yield parsed or _slow_block(_csv_records(block, first_row), first_row, width,
                                     fields, key_col)
        first_row += len(block)
    records = _csv_records(itertools.chain(block, lines), first_row)
    while True:
        rows = []
        try:
            rows.extend(itertools.islice(records, _BLOCK_ROWS))
        except ValueError:
            # a bad record before the one csv refused is the first error
            _slow_block(rows, first_row, width, fields, key_col)
            raise
        if not rows:
            break
        yield (_record_block(rows, width, fields, key_col)
               or _slow_block(rows, first_row, width, fields, key_col))
        first_row += len(rows)


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
        # a stratum's code is the record count before its first appearance,
        # so ordering by code groups the strata in input order
        first: dict[str, int] = {}
        seen = itertools.count()
        codes, blocks = [], []
        for keys, cols in _column_blocks(fh, len(header), fields, key_col):
            rows = len(cols[0])
            keys = itertools.repeat("", rows) if keys is None else keys
            codes.append(np.fromiter(map(first.setdefault, keys, seen),
                                     dtype=np.int64, count=rows))
            blocks.append(cols)
    if not first:
        return []
    code = np.concatenate(codes)
    z, w, y, *xs = (np.concatenate(col) for col in zip(*blocks))
    x = np.column_stack(xs) if xs else np.empty((len(z), 0))
    if (code[1:] < code[:-1]).any():  # interleaved strata: gather each one's rows
        order = np.argsort(code, kind="stable")
        code, z, w, y, x = code[order], z[order], w[order], y[order], x[order]
    bounds = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), len(code)]
    return [StratumRecords(key=key, z=z[lo:hi], w=w[lo:hi], y=y[lo:hi], x=x[lo:hi])
            for key, lo, hi in zip(first, bounds, bounds[1:])]


def _stratum_dataset(records: StratumRecords) -> tuple[Dataset, np.ndarray]:
    x = records.x
    centered, means = center_covariates(x) if x.shape[1] else (x, np.zeros(0))
    ds = Dataset(z=records.z, w=records.w, y=records.y, x=centered)
    return ds, means


def stratum_steps(ds: Dataset, config: AnalysisConfig, offsets: np.ndarray = ()):
    """One stratum's estimates and a getter that runs each of its steps
    ("wald", "far", "ts", "ts_f10") at most once; ``offsets`` as in validate.
    Invalid data or non-finite variance families raise InvalidDatasetError."""
    problems = validate(ds, offsets)
    if problems:
        raise InvalidDatasetError("; ".join(problems))
    regime = config.regime
    spec = regime_spec(regime)
    if spec.family == "sandwich":
        fit_y, fit_w = fit_interacted_pair(ds, ds.z)
        estimates = Estimates(fit_y.tau_hat, fit_w.tau_hat)
        components = sandwich_cov(fit_y, fit_w, config.adjustment)
    else:
        summary = summarize(ds, ds.z)
        estimates = Estimates(summary.tau_y, summary.tau_w)
        components = (variance_components(summary) if spec.family == "rem"
                      else plain_components(summary))
    # the families the steps read: data on an extreme scale can overflow
    # them, and the sets would then have nan endpoints
    read = {spec.family, spec.screen_family, *(("proj",) if spec.mixture else ())}
    if not all(math.isfinite(v) for name in read for v in components.family(name)):
        raise InvalidDatasetError("variance estimates are not finite")
    steps = {"wald": lambda: wald_ci(regime, estimates, components, config),
             "far": lambda: far_set(regime, estimates, components, config),
             "ts": lambda: first_stage_test(regime, estimates, components, config),
             "ts_f10": lambda: f_screen(regime, estimates, components)}
    return estimates, functools.cache(lambda step: steps[step]())


def analyze_stratum(ds: Dataset, methods: tuple[str, ...],
                    config: AnalysisConfig, offsets: np.ndarray = ()) -> dict:
    """Every requested method on one stratum, or an explicit skip reason;
    ``offsets`` are the covariate means its centering removed (see
    validate)."""
    try:
        estimates, get = stratum_steps(ds, config, offsets)
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

    def run_one(records: StratumRecords) -> dict:
        ds, means = _stratum_dataset(records)
        entry = {"stratum": records.key, "n": ds.n, "n1": ds.n1, "n0": ds.n0}
        if k:
            entry["covariate_means"] = [float(m) for m in means]
        entry.update(analyze_stratum(ds, methods, config, means))
        return entry

    # strata run one after another: the per-stratum work holds the
    # interpreter lock, so threads would only wait on each other
    entries = [run_one(records) for records in strata]
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
        blocks = [cols for _, cols in _column_blocks(fh, len(header), fields)]
    columns = [np.concatenate(col) for col in zip(*blocks)]
    if not columns or not len(columns[0]):
        raise ValueError("no data rows in input")
    return np.column_stack(columns)
