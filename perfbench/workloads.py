"""The four benchmark workloads: seeded inputs, the latekit command one pass
runs, and the output files each pass is checked on.

Every workload drives the program through ``latekit.cli.main`` with files
generated from the benchmark seed, so the program sees only those inputs.
A pass is one command; an op is one replication in a study (one assignment
drawn, six methods scored) and one stratum in ``analyze_strata``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240901

_ACCEPTANCE_GRID = (0.05, 0.10, 0.15, 0.2, 0.3, 0.5)
_STUDY = {"n": 200, "k": 5, "alpha": 0.05, "gamma": [0.075, 0.025],
          "p_plus": 0.01, "threads": 1}

# Strata in the generated analyze input. Every SKIP_EVERY-th stratum has
# SKIP_ROWS rows, too few for two units per arm, so analyze skips it.
STRATA = 200
SKIP_EVERY = 50
SKIP_ROWS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    study: dict | None = None  # simulate config without seed; None for analyze

    @property
    def ops_per_pass(self) -> int:
        if self.study is None:
            return STRATA
        return len(self.study["tau_w"]) * self.study["reps"]

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("table.csv",) if self.study else ("report.json", "lengths.csv")


WORKLOADS = {w.name: w for w in (
    Workload(
        "cre_study",
        "acceptance CRE study at reduced reps: arm moments and variance "
        "families lead, the draw is ~1%, no mixture table",
        study={**_STUDY, "tau_w": [0.005, *_ACCEPTANCE_GRID], "design": "cre",
               "adjustment": "none", "reps": 50}),
    Workload(
        "rem_study",
        "acceptance ReM study at reduced reps: rejection draws and mixture "
        "lookups lead, set-up builds two quantile tables",
        study={**_STUDY, "tau_w": list(_ACCEPTANCE_GRID), "design": "rem",
               "p_a": 0.01, "adjustment": "none", "reps": 25}),
    Workload(
        "hc2_study",
        "CRE study with HC2 regression adjustment: interacted OLS and "
        "sandwich lead, no moments path and no mixture",
        study={**_STUDY, "tau_w": list(_ACCEPTANCE_GRID), "design": "cre",
               "adjustment": "hc2", "reps": 50}),
    Workload(
        "analyze_strata",
        "analyze on a many-stratum CSV: parsing, the stratum thread pool "
        "and one small distinct dataset per op"),
)}


def write_strata_csv(path: Path, seed: int, strata: int = STRATA) -> None:
    """Write an analyze input of ``strata`` strata with covariates x1..x3.

    The complier share runs from 1% to 60% on a log scale across strata so
    the robust sets take every common geometry: whole line and two rays
    when the first stage is weak, a bounded interval when it is strong.
    Always-takers and never-takers are both present in every stratum, so
    receipt is never constant.
    """
    rng = np.random.default_rng(seed)
    lines = ["stratum,z,w,y,x1,x2,x3"]
    for s in range(strata):
        n = SKIP_ROWS if s % SKIP_EVERY == SKIP_EVERY - 1 else int(rng.integers(80, 121))
        complier_share = 10.0 ** rng.uniform(-2.0, np.log10(0.6))
        n_always = max(2, round(0.1 * n))
        n_compliers = max(1, round(complier_share * n))
        kind = np.zeros(n, dtype=np.int64)  # 0 never-taker, 1 complier, 2 always-taker
        kind[:n_compliers] = 1
        kind[n_compliers:n_compliers + n_always] = 2
        kind = rng.permutation(kind)
        z = np.zeros(n, dtype=np.int64)
        z[rng.permutation(n)[:n // 2]] = 1
        w = ((kind == 2) | ((kind == 1) & (z == 1))).astype(np.int64)
        x = rng.standard_normal((n, 3))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.normal(1.0, 0.5) * w + rng.standard_normal(n)
        for i in range(n):
            lines.append(f"s{s:04d},{z[i]},{w[i]},{y[i]:.6f},"
                         f"{x[i, 0]:.6f},{x[i, 1]:.6f},{x[i, 2]:.6f}")
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Path:
    """Write the workload's input file for ``seed`` into ``workdir``."""
    if workload.study is None:
        path = workdir / "strata.csv"
        write_strata_csv(path, seed)
    else:
        path = workdir / "study.json"
        path.write_text(json.dumps({**workload.study, "seed": seed}, indent=2) + "\n")
    return path


def pass_argv(workload: Workload, input_path: Path, outdir: Path) -> list[str]:
    """Arguments of the ``latekit`` command one pass runs."""
    if workload.study is None:
        return ["analyze", "--input", str(input_path),
                "--out", str(outdir / "report.json"),
                "--plot-data", str(outdir / "lengths.csv")]
    return ["simulate", "--config", str(input_path), "--out", str(outdir)]


def warm_caches(workload: Workload) -> None:
    """Fill, through public calls, every cache a pass will read.

    Only ReM reads one: the mixture quantile tables for the threshold
    derived from p_a, at alpha/2 and at each first-stage gamma.
    """
    study = workload.study
    if study is None or study["design"] != "rem":
        return
    from latekit.mixture import MixtureParams, quantile_table, threshold_from_pa

    a = threshold_from_pa(study["p_a"], study["k"])
    for tail in (study["alpha"] / 2.0, *study["gamma"]):
        quantile_table(MixtureParams(k=study["k"], a=a, alpha=tail))
