"""latekit benchmark: run one workload in fresh processes and report metrics.

    python3 perfbench/run.py --workload cre_study --seed 20240901 --seconds 15 --trace 0

Run from the root of a latekit checkout; the program is imported from its
``src``. With ``--trace 0`` three fresh single-threaded processes each set up
and run timed passes for a third of ``--seconds``, and the end-to-end metrics
(``setup_s``, ``ops_per_ref_s``, ``peak_rss_mb``) are printed. With
``--trace 1`` one process alternates untraced and traced passes, and the
per-layer metrics are printed instead. The last line of output is one JSON
object. ``--workload all`` runs every workload in turn.

Outputs are checked on every run: at the default seed against the reference
files in ``reference/``, at any other seed against the first run on the same
input in this checkout. A results file with the machine, software, seed and
op counts goes to ``.perfbench_runs/results/`` in the checkout. See NOTES.md.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import compare_dirs
from probe import REFERENCE_S
from tracing import LAYER_METRICS
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
UNTRACED_PROCESSES = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_ref_s": "ops/ref_s", "peak_rss_mb": "MB"}
# Every benchmark process runs single-threaded numerics with a fixed hash
# seed and fixed glibc malloc thresholds. With glibc's default dynamic
# thresholds, whether one 12.8 MB array of a ReM table build stays in the
# heap depends on the lengths of paths and environment strings: the ReM
# peak RSS flipped between 113 MB and 125 MB with the checkout's path. Fixed
# at about the values the dynamic rule reaches after that build, arrays of
# 4 MiB or more are always mapped and unmapped on free, the heap is trimmed
# only above 32 MiB free, and pass speed is unchanged.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(4 << 20),
             "MALLOC_TRIM_THRESHOLD_": str(32 << 20)}


def _spawn(workload, input_path: Path, workdir: Path, index: int, seconds: float,
           traced: bool) -> dict | None:
    """Run one worker process to completion; None if it failed to report."""
    procdir = workdir / f"proc{index}"
    procdir.mkdir()
    spec = {"workload": workload.name, "input": str(input_path),
            "outdir": str(procdir / "out"), "seconds": seconds, "traced": traced,
            "result": str(procdir / "result.json"),
            "spans": str(procdir / "spans.jsonl.gz")}
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    log = procdir / "log.txt"
    with open(log, "w") as fh:
        spec["spawned_at"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                                  env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=40 + 3 * seconds)
            rc = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            rc = "timeout"
    result_path = Path(spec["result"])
    if rc != 0 or not result_path.is_file():
        print(f"{workload.name} process {index} failed ({rc}):\n"
              + log.read_text()[-3000:], file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["outputs"] = procdir / "out" / "pass0"
    result["spans"] = spec["spans"] if Path(spec["spans"]).is_file() else None
    return result


def _check_outputs(workload, seed: int, input_path: Path, results: list[dict]
                   ) -> tuple[list[str], str]:
    """Problems found, and what the outputs were checked against.

    Away from the default seed, the first run on the same input file (same
    workload definition and seed) in this checkout is the reference.
    """
    problems = [p for r in results for p in r["problems"]]
    first = results[0]["outputs"]
    for r in results[1:]:
        problems += compare_dirs(r["outputs"], first, workload.outputs)
    if seed == DEFAULT_SEED:
        against = f"reference recorded at seed {seed}"
        expected = HERE / "reference" / workload.name
    else:
        against = f"first run at seed {seed} in this checkout"
        digest = hashlib.sha256(input_path.read_bytes()).hexdigest()[:16]
        expected = RUNS / "seen" / f"{workload.name}-{digest}"
        if not expected.is_dir():
            staging = expected.with_name(expected.name + f".{os.getpid()}")
            shutil.copytree(first, staging)
            os.replace(staging, expected)
            against += " (this run)"
    problems += compare_dirs(first, expected, workload.outputs)
    return problems, against


def _environment() -> dict:
    """Machine and software the run measured."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latekit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "commit": _commit(),
            "source_sha256": source.hexdigest(),
            "ops_per_pass": {name: w.ops_per_pass for name, w in WORKLOADS.items()}}


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _end_to_end(results: list[dict], passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics, plus the wall-clock ``setup_wall_s`` and
    ``ops_per_s`` they are rescaled from.

    Times are rescaled to reference machine speed by REFERENCE_S / the probe
    time measured next to them (probe.py): set-up by the probe right after
    it, each pass by the probes just before and after it. Set-up and peak
    memory are medians over processes; rates are all ops over all pass time.
    """
    good = [p for p in passes if not p["error"]]
    ops = sum(p["ops"] for p in good)

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": median(r["setup_s"] * REFERENCE_S / r["setup_probe_s"] for r in results),
        "ops_per_ref_s": ops / sum(p["seconds"] * REFERENCE_S / p["probe_s"] for p in good)
        if good else 0.0,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "setup_wall_s": median(r["setup_s"] for r in results),
        "ops_per_s": ops / sum(p["seconds"] for p in good) if good else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload, print its metrics, write its results file, and
    return the summary printed as the last line."""
    workload = WORKLOADS[name]
    workdir = RUNS / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        input_path = make_inputs(workload, seed, workdir)
        processes = 1 if traced else UNTRACED_PROCESSES
        results = [_spawn(workload, input_path, workdir, i, seconds / processes, traced)
                   for i in range(processes)]
        ok = [r for r in results if r is not None]
        passes = [p for r in ok for p in r["passes"]]
        attempted = sum(p["ops"] for p in passes) + workload.ops_per_pass * (len(results) - len(ok))
        failed = attempted - sum(p["ops"] for p in passes if not p["error"])
        for p in passes:
            if p["error"]:
                print(f"{name}: pass failed: {p['error']}", file=sys.stderr)
        problems, against = (_check_outputs(workload, seed, input_path, ok) if ok
                             else (["no process reported"], "nothing"))
        if traced:
            layers = ok[0].get("layers", {}) if ok else {}
            metrics = {k: (v, LAYER_METRICS[k]) for k, v in layers.items()}
            if not metrics:
                problems.append("no per-layer metrics")
        else:
            end_to_end = _end_to_end(ok, passes)
            wall = {k: end_to_end.pop(k) for k in ("setup_wall_s", "ops_per_s")}
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
        correct = not problems and failed == 0
        for problem in problems:
            print(f"{name}: output check: {problem}", file=sys.stderr)

        print(f"workload {name}  seed {seed}  {'traced' if traced else 'untraced'}  "
              f"{len(passes)} passes in {len(results)} processes, "
              f"{workload.ops_per_pass} ops per pass")
        for key, (value, unit) in metrics.items():
            print(f"  {key:38s} {value:14.6g} {unit}")
        if not traced:
            print(f"  {'setup_wall_s':38s} {wall['setup_wall_s']:14.6g} s  (wall clock, not bounded)")
            print(f"  {'ops_per_s':38s} {wall['ops_per_s']:14.6g} ops/s  (wall clock, not bounded)")
        print(f"  {'error_rate':38s} {failed / max(attempted, 1):14.6g} ratio"
              f"  ({failed} of {attempted} ops failed)")
        print(f"  {'output_match':38s} {int(not problems):14d} 0/1"
              f"  (checked against the {against})")

        summary = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        _write_results(name, seed, seconds, traced, summary, ok, problems, against,
                       None if traced else wall)
        return summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_results(name, seed, seconds, traced, summary, results, problems, against,
                   wall):
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = RUNS / "results" / f"{name}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}"
    base.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "environment": _environment(),
        "processes": [{k: r[k] for k in ("setup_s", "setup_probe_s", "peak_rss_mb", "passes")}
                      for r in results],
        "output_problems": problems, "outputs_checked_against": against,
        "wall_clock": wall, **summary,
    }
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if results and results[0]["spans"]:
        shutil.copyfile(results[0]["spans"], base.with_suffix(".spans.jsonl.gz"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latekit" / "__init__.py").is_file():
        print(f"error: no latekit source under {ROOT.name}/src; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                 for name in names}
    if args.workload == "all":
        print(json.dumps(summaries))
    else:
        print(json.dumps(summaries[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
