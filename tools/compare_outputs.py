"""Compare the artefacts of two latekit checkouts on the benchmark inputs.

    python3 tools/compare_outputs.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are the roots of two checkouts. The inputs are
written by ``perfbench/workloads.py`` at seeds 20240901 and 777. In each
checkout (its ``src`` on ``PYTHONPATH``, no bytecode written) every study
workload runs ``latekit simulate``, and ``latekit analyze`` runs on the
strata input under ``cre``, ``--design rem --pa 0.1``, ``--adjust hc2`` and
``--design rem --pa 0.1 --adjust ehw``; under each of these four settings
``tools/two_stage_lines.py`` also runs ``two_stage_set`` and the one-row
``wald_ci``, ``far_set``, ``first_stage_test`` and ``f_screen`` on every
stratum, and writes the estimates and family triples they read
(``summarize`` and ``variance_components``, or the sandwich). Under
``cre`` and ``rem``, ``analyze`` also runs with ``--methods wald_f10,far``
and ``--methods ts_f10,wald``: the F screen's skip and branch without the
t test, which the default methods never leave out (``two_stage_lines.py``
takes no ``--methods``). Under all four
settings ``analyze`` also runs on a file whose strata all differ in size
(``write_sized_strata_csv``), so that arms of one size come from the
treated arm of one stratum and the control arm of another. At each seed
``tools/quantile_tables.py`` also writes every raw and projected value of
the quantile tables these runs build (k = 5 at p_a = 0.01 and k = 3 at
p_a = 0.1, each at alpha 0.025 and 0.075), and ``latekit design`` draws one
assignment for the strata input's covariates with ``--mode cre`` and with
``--mode rem --pa 0.1``, each at ``--seed 1``.
For each artefact (``table.csv``, ``table.json``; ``report.json``,
``lengths.csv``; ``two_stage_set.jsonl``; ``tables.txt``; ``design.csv``) one
line says "identical" or gives the largest relative difference of its numbers.
The exit status is 1 when a command fails, an artefact is missing, the text
around the numbers differs, or a number moves by more than 1e-9 relative
(perfbench's definition of the same output); else 0.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TWO_STAGE_LINES = ROOT / "tools" / "two_stage_lines.py"
QUANTILE_TABLES = ROOT / "tools" / "quantile_tables.py"
sys.path.insert(0, str(ROOT / "perfbench"))

from check import _NUMBER, REL_TOL  # noqa: E402
from workloads import STRATA, WORKLOADS, make_inputs, pass_argv  # noqa: E402

SEEDS = (20240901, 777)
ANALYZE_SETTINGS = {"cre": [], "rem": ["--design", "rem", "--pa", "0.1"],
                    "hc2": ["--adjust", "hc2"],
                    "rem_ehw": ["--design", "rem", "--pa", "0.1", "--adjust", "ehw"]}
# one assignment draw for the strata input's covariates under each design
DESIGN_SETTINGS = {"cre": ["--mode", "cre"], "rem": ["--mode", "rem", "--pa", "0.1"]}
# analyze alone, with some methods: a setting's name and its methods
METHOD_SETTINGS = {f"{setting},{methods}": [*ANALYZE_SETTINGS[setting], "--methods", methods]
                   for setting in ("cre", "rem") for methods in ("wald_f10,far", "ts_f10,wald")}


def write_sized_strata_csv(path: Path, seed: int, strata: int = STRATA) -> None:
    """An analyze input from write_strata_csv's generator with 60 + s rows in
    stratum s, so no two strata share a size and an arm size is shared by
    the treated arm of one stratum and the control arm of another."""
    rng = np.random.default_rng(seed)
    lines = ["stratum,z,w,y,x1,x2,x3"]
    for s in range(strata):
        n = 60 + s
        complier_share = 10.0 ** rng.uniform(-2.0, np.log10(0.6))
        kind = np.zeros(n, dtype=np.int64)  # 0 never-taker, 1 complier, 2 always-taker
        n_compliers, n_always = max(1, round(complier_share * n)), max(2, round(0.1 * n))
        kind[:n_compliers] = 1
        kind[n_compliers:n_compliers + n_always] = 2
        kind = rng.permutation(kind)
        z = np.zeros(n, dtype=np.int64)
        z[rng.permutation(n)[:n // 2]] = 1
        w = ((kind == 2) | ((kind == 1) & (z == 1))).astype(np.int64)
        x = rng.standard_normal((n, 3))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.normal(1.0, 0.5) * w + rng.standard_normal(n)
        lines += [f"s{s:04d},{z[i]},{w[i]},{y[i]:.6f},{x[i, 0]:.6f},{x[i, 1]:.6f},{x[i, 2]:.6f}"
                  for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


def largest_difference(a: bytes, b: bytes) -> float | None:
    """0.0 for the same numbers in the same text, else the largest relative
    difference |x - y| / max(|x|, |y|) of two numbers at one place; None
    when the text around the numbers differs."""
    if a == b:
        return 0.0
    if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
        return None
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def runs(workdir: Path, seed: int):
    """(name, Python argv, artefact names) of every command at ``seed``, its
    input written into ``workdir``; each argv's output directory is ``{out}``."""
    yield "quantile_tables", [str(QUANTILE_TABLES), "{out}/tables.txt"], ("tables.txt",)
    for name, workload in WORKLOADS.items():
        inputs = make_inputs(workload, seed, workdir)
        argv = ["-m", "latekit.cli", *pass_argv(workload, inputs, Path("{out}"))]
        if workload.study is not None:
            yield name, argv, ("table.csv", "table.json")
        else:
            for setting, extra in ANALYZE_SETTINGS.items():
                yield f"{name}[{setting}]", argv + extra, workload.outputs
                yield (f"{name}[{setting}]", [str(TWO_STAGE_LINES), str(inputs),
                                              "{out}/two_stage_set.jsonl", *extra],
                       ("two_stage_set.jsonl",))
            for setting, extra in METHOD_SETTINGS.items():
                yield f"{name}[{setting}]", argv + extra, workload.outputs
            for mode, extra in DESIGN_SETTINGS.items():
                yield (f"design[{mode}]", ["-m", "latekit.cli", "design", "--input", str(inputs),
                                           *extra, "--seed", "1", "--out", "{out}/design.csv"],
                       ("design.csv",))
            sized = workdir / "sized_strata.csv"
            write_sized_strata_csv(sized, seed)
            for setting, extra in ANALYZE_SETTINGS.items():
                yield (f"analyze_sizes[{setting}]", ["-m", "latekit.cli", *pass_argv(
                    workload, sized, Path("{out}")), *extra], workload.outputs)


def run(checkout: Path, argv: list[str], outdir: Path) -> str | None:
    """Run Python with ``argv`` and ``checkout``'s ``latekit`` writing into
    ``outdir``; the error text if it fails."""
    outdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [a.replace("{out}", str(outdir)) for a in argv]
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, cwd=outdir)
    return None if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            inputs = Path(tmp, f"inputs-{seed}")
            inputs.mkdir()
            for name, args, artefacts in runs(inputs, seed):
                dirs = [Path(tmp, side, str(seed), name) for side in ("parent", "change")]
                errors = [run(c, args, d) for c, d in zip((parent, change), dirs)]
                for side, error in zip(("parent", "change"), errors):
                    if error:
                        print(f"seed {seed} {name}: {side} failed: {error}")
                        failed = True
                if any(errors):
                    continue
                for artefact in artefacts:
                    a, b = (d / artefact for d in dirs)
                    if not (a.is_file() and b.is_file()):
                        verdict, failed = "missing", True
                    else:
                        a, b = a.read_bytes(), b.read_bytes()
                        worst = largest_difference(a, b)
                        if a == b:
                            verdict = "identical"
                        elif worst is None:
                            verdict, failed = "text differs", True
                        else:
                            verdict = f"largest relative difference {worst:.3g}"
                            failed |= worst > REL_TOL
                    print(f"seed {seed} {name} {artefact}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
