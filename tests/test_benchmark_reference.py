"""Each benchmark workload's pass, run through ``cli.main`` at the
benchmark's default seed, writes the outputs recorded in
``perfbench/reference/``: the same bytes, or every number within 1e-9
relative. The benchmark's output gate thus fails at test time too."""
import importlib
from pathlib import Path

import pytest

from latekit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_pass_matches_its_reference(tmp_path):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        check = importlib.import_module("check")
    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        outdir = tmp_path / name
        outdir.mkdir()
        input_path = workloads.make_inputs(workload, workloads.DEFAULT_SEED, outdir)
        assert main(workloads.pass_argv(workload, input_path, outdir)) == 0
        problems[name] = check.compare_dirs(outdir, PERFBENCH / "reference" / name,
                                            workload.outputs)
    assert problems == {name: [] for name in workloads.WORKLOADS}
