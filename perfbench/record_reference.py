"""Record the reference outputs that run.py checks the default seed against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed, in this process, and
writes its outputs to ``perfbench/reference/<workload>/``; files over 64 KiB
are stored gzip-compressed. Run it only when a workload's definition changes,
never to accept a change in the program's output.
"""
from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from latekit.cli import main  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, make_inputs, pass_argv  # noqa: E402

PACK_OVER = 64 * 1024


def record() -> None:
    for workload in WORKLOADS.values():
        target = HERE / "reference" / workload.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            work = Path(tmp)
            (work / "out").mkdir()
            input_path = make_inputs(workload, DEFAULT_SEED, work)
            if main(pass_argv(workload, input_path, work / "out")) != 0:
                raise SystemExit(f"{workload.name}: pass failed")
            for name in workload.outputs:
                data = (work / "out" / name).read_bytes()
                if len(data) > PACK_OVER:
                    (target / (name + ".gz")).write_bytes(gzip.compress(data, mtime=0))
                else:
                    (target / name).write_bytes(data)
        print(f"{workload.name}: {sorted(p.name for p in target.iterdir())}")


if __name__ == "__main__":
    record()
