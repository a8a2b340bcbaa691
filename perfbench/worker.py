"""One benchmark process: set up latekit, then run timed passes of a workload.

run.py starts it with one JSON argument (see ``run.py:_spawn``) and reads the
JSON result file it writes. Untraced, it runs passes until its share of the
run's seconds is used. Traced, it alternates an untraced and a traced pass
for the same time, so tracing overhead is measured in one process.
"""
from __future__ import annotations

import gzip
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from latekit.cli import main

from check import compare_dirs
from probe import probe_seconds
from tracing import Tracer, bound, layer_metrics
from workloads import WORKLOADS, pass_argv, warm_caches


def run_pass(workload, input_path: Path, outdir: Path, tracer: Tracer | None) -> dict:
    """One timed command; any exception or nonzero exit fails all its ops."""
    outdir.mkdir(parents=True)
    argv = pass_argv(workload, input_path, outdir)
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = main(argv)
        else:
            with bound(tracer), tracer.span("cli.main"):
                rc = main(argv)
        if rc != 0:
            error = f"exit code {rc}"
    except Exception:  # a failed pass is counted, not fatal to the run
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"ops": workload.ops_per_pass, "seconds": seconds,
            "traced": tracer is not None, "error": error}


def main_worker(spec: dict) -> dict:
    """Set up, run the passes, and return the process's result.

    Set-up time runs from ``spec["spawned_at"]``, read on the parent's
    monotonic clock just before it started this process, to the end of
    set-up. The probe (probe.py) then runs three times before the first pass
    and once after every pass.
    """
    workload = WORKLOADS[spec["workload"]]
    input_path = Path(spec["input"])
    outroot = Path(spec["outdir"])
    setup_tracer = Tracer() if spec["traced"] else None
    if setup_tracer is None:
        warm_caches(workload)
    else:
        with bound(setup_tracer):
            warm_caches(workload)
    setup_s = time.monotonic() - spec["spawned_at"]
    setup_probe_s = statistics.median(probe_seconds() for _ in range(3))

    passes, tracers, problems = [], [], []
    first = outroot / "pass0"
    budget_start = time.perf_counter()
    probe_before = setup_probe_s
    while not passes or time.perf_counter() - budget_start < spec["seconds"]:
        for traced in ((False, True) if spec["traced"] else (False,)):
            tracer = Tracer() if traced else None
            outdir = outroot / f"pass{len(passes)}"
            record = run_pass(workload, input_path, outdir, tracer)
            probe_after = probe_seconds()
            record["probe_s"] = (probe_before + probe_after) / 2.0
            probe_before = probe_after
            passes.append(record)
            if tracer is not None:
                tracers.append(tracer)
            if outdir != first:
                problems += compare_dirs(outdir, first, workload.outputs)
                shutil.rmtree(outdir)

    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "passes": passes, "problems": problems}
    if spec["traced"] and not any(p["error"] for p in passes):
        wall = {t: statistics.median(p["seconds"] for p in passes if p["traced"] == t)
                for t in (False, True)}
        try:
            result["layers"] = layer_metrics(setup_tracer.spans,
                                             [t.spans for t in tracers],
                                             wall[True] / wall[False])
        except ValueError as exc:
            problems.append(str(exc))
        with gzip.open(spec["spans"], "wt") as fh:
            for label, spans in [("setup", setup_tracer.spans)] + list(enumerate(
                    t.spans for t in tracers)):
                for s in spans:
                    fh.write(json.dumps([label, *s]) + "\n")
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    Path(spec["result"]).write_text(json.dumps(main_worker(spec)))
