"""Compare the artefacts of two latekit checkouts on the benchmark inputs.

    python3 tools/compare_outputs.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are the roots of two checkouts. The inputs are
written by ``perfbench/workloads.py`` at seeds 20240901 and 777. In each
checkout (its ``src`` on ``PYTHONPATH``, no bytecode written) every study
workload runs ``latekit simulate``, and ``latekit analyze`` runs on the
strata input under ``cre``, ``--design rem --pa 0.1``, ``--adjust hc2`` and
``--design rem --pa 0.1 --adjust ehw``. For each artefact (``table.csv``,
``table.json``; ``report.json``, ``lengths.csv``) one line says
"identical" or gives the largest relative difference of its numbers. The
exit status is 1 when a command fails, an artefact is missing, the text
around the numbers differs, or a number moves by more than 1e-9 relative
(perfbench's definition of the same output); else 0.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from check import _NUMBER, REL_TOL  # noqa: E402
from workloads import WORKLOADS, make_inputs, pass_argv  # noqa: E402

SEEDS = (20240901, 777)
ANALYZE_SETTINGS = {"cre": [], "rem": ["--design", "rem", "--pa", "0.1"],
                    "hc2": ["--adjust", "hc2"],
                    "rem_ehw": ["--design", "rem", "--pa", "0.1", "--adjust", "ehw"]}


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
    """(name, argv, artefact names) of every command at ``seed``, its input
    written into ``workdir``; each argv's output directory is ``{out}``."""
    for name, workload in WORKLOADS.items():
        inputs = make_inputs(workload, seed, workdir)
        argv = pass_argv(workload, inputs, Path("{out}"))
        if workload.study is not None:
            yield name, argv, ("table.csv", "table.json")
        else:
            for setting, extra in ANALYZE_SETTINGS.items():
                yield f"{name}[{setting}]", argv + extra, workload.outputs


def run(checkout: Path, argv: list[str], outdir: Path) -> str | None:
    """Run ``latekit`` from ``checkout`` writing into ``outdir``; the error
    text if it fails."""
    outdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [a.replace("{out}", str(outdir)) for a in argv]
    done = subprocess.run([sys.executable, "-m", "latekit.cli", *args], env=env,
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
