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
import math
from dataclasses import dataclass

import numpy as np

from .confidence_sets import far_set, wald_ci
from .data_model import AnalysisConfig, Dataset, DesignSpec, center_covariates, validate
from .estimation import Estimates, plain_components, regime_spec, variance_components
from .exceptions import LatekitError
from .stats_core import fit_interacted_pair, sandwich_cov, summarize
from .two_stage import f_screen, first_stage_test

ALL_METHODS = ("wald", "far", "ts", "ts_f10", "wald_f10")


@dataclass
class StratumRecords:
    key: str
    z: list[int]
    w: list[int]
    y: list[float]
    x: list[list[float]]


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


def read_records(path: str) -> list[StratumRecords]:
    """Parse an analysis CSV into per-stratum record groups (input order)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader)
        for required in ("z", "w", "y"):
            if required not in header:
                raise ValueError(f"missing required column {required!r}")
        k = _covariate_count(header)
        idx = {name: header.index(name) for name in header}
        has_stratum = "stratum" in header
        groups: dict[str, StratumRecords] = {}
        order: list[str] = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row {rownum}: expected {len(header)} fields, got {len(row)}")
            key = row[idx["stratum"]].strip() if has_stratum else ""
            if key not in groups:
                groups[key] = StratumRecords(key=key, z=[], w=[], y=[], x=[])
                order.append(key)
            g = groups[key]
            g.z.append(_parse_cell(row[idx["z"]], rownum, "z", "binary"))
            g.w.append(_parse_cell(row[idx["w"]], rownum, "w", "binary"))
            g.y.append(_parse_cell(row[idx["y"]], rownum, "y", "number"))
            g.x.append([_parse_cell(row[idx[f"x{j + 1}"]], rownum, f"x{j + 1}", "number")
                        for j in range(k)])
    return [groups[key] for key in order]


def _stratum_dataset(records: StratumRecords) -> tuple[Dataset, np.ndarray]:
    x = np.array(records.x, dtype=float).reshape(len(records.z), -1)
    centered, means = center_covariates(x) if x.shape[1] else (x, np.zeros(0))
    ds = Dataset(z=np.array(records.z), w=np.array(records.w),
                 y=np.array(records.y), x=centered)
    return ds, means


def analyze_stratum(ds: Dataset, methods: tuple[str, ...],
                    config: AnalysisConfig) -> dict:
    """Every requested method on one stratum, or an explicit skip reason."""
    problems = validate(ds)
    if problems:
        return {"skipped": "; ".join(problems)}
    regime = config.regime
    family = regime_spec(regime).family
    try:
        if family == "sandwich":
            fit_y, fit_w = fit_interacted_pair(ds, ds.z)
            estimates = Estimates(fit_y.tau_hat, fit_w.tau_hat)
            components = sandwich_cov(fit_y, fit_w, config.adjustment)
        else:
            summary = summarize(ds, ds.z)
            estimates = Estimates(summary.tau_y, summary.tau_w)
            components = (variance_components(summary) if family == "rem"
                          else plain_components(summary))
    except LatekitError as exc:
        # a stratum with degenerate covariates must not take down the run
        return {"skipped": str(exc)}

    # each step runs at most once, however many methods read it
    steps = {"wald": lambda: wald_ci(regime, estimates, components, config),
             "far": lambda: far_set(regime, estimates, components, config),
             "ts": lambda: first_stage_test(regime, estimates, components, config),
             "ts_f10": lambda: f_screen(regime, estimates, components)}
    get = functools.cache(lambda step: steps[step]())

    out: dict = {}
    for m in methods:
        if m == "wald":
            out[m] = {"estimate": _num(estimates.wald().tau_hat),
                      "set": get("wald").to_json_dict()}
        elif m == "far":
            out[m] = {"set": get("far").to_json_dict()}
        elif m in ("ts", "ts_f10"):
            fs = get(m)
            branch = "wald" if fs.strong else "far"
            out[m] = {"first_stage": _fs_dict(fs), "branch": branch,
                      "set": get(branch).to_json_dict()}
        elif m == "wald_f10":
            fs = get("ts_f10")
            entry = {"first_stage": _fs_dict(fs)}
            if fs.strong:
                entry["set"] = get("wald").to_json_dict()
            else:
                entry["skipped"] = "first-stage F <= 10"
            out[m] = entry
        else:
            raise ValueError(f"unknown method: {m!r}")
    return {"tau_w_hat": _num(estimates.tau_w), "tau_y_hat": _num(estimates.tau_y),
            "est_compliers": _num(ds.n * estimates.tau_w), "methods": out}


def _num(v: float):
    if v is None or math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _fs_dict(fs) -> dict:
    return {"statistic": _num(fs.statistic), "critical": _num(fs.critical),
            "strong": fs.strong, "kind": fs.statistic_kind}


def analyze_file(path: str, *, methods: tuple[str, ...] = ALL_METHODS,
                 adjustment: str = "none", design: str = "cre",
                 p_a: float | None = None, alpha: float = 0.05,
                 gamma: float = 0.075, p_plus: float = 0.01) -> dict:
    """Per-stratum analysis report for a records file."""
    strata = read_records(path)
    if not strata:
        raise ValueError("no data rows in input")
    k = len(strata[0].x[0]) if strata[0].x else 0
    if design == "rem" or adjustment != "none":
        if k == 0:
            raise ValueError("covariate columns x1..xK are required for "
                             "rerandomization analysis or regression adjustment")
    if design == "rem":
        if p_a is None:
            raise ValueError("--pa is required with --design rem")
        threshold = DesignSpec.rem(n1=1, p_a=p_a, k=k).a
    else:
        threshold = math.inf

    def run_one(records: StratumRecords) -> dict:
        ds, means = _stratum_dataset(records)
        spec = (DesignSpec(kind="rem", n1=max(ds.n1, 1), a=threshold, p_a=p_a)
                if design == "rem" else DesignSpec.cre(max(ds.n1, 1)))
        config = AnalysisConfig(alpha=alpha, gamma=gamma, p_plus=p_plus,
                                adjustment=adjustment, design=spec)
        entry = {"stratum": records.key, "n": ds.n, "n1": ds.n1, "n0": ds.n0}
        if k:
            entry["covariate_means"] = [float(m) for m in means]
        entry.update(analyze_stratum(ds, methods, config))
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


def write_plot_data(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["stratum", "n", "est_compliers",
                                                "method", "length", "strong"])
        writer.writeheader()
        writer.writerows(rows)


def read_covariates(path: str) -> np.ndarray:
    """Covariate matrix (x1..xK columns) from a CSV, for design draws."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader)
        k = _covariate_count(header)
        if k == 0:
            raise ValueError("no covariate columns x1..xK found")
        idx = [header.index(f"x{j + 1}") for j in range(k)]
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            rows.append([_parse_cell(row[i], rownum, header[i], "number") for i in idx])
    if not rows:
        raise ValueError("no data rows in input")
    return np.array(rows, dtype=float)
