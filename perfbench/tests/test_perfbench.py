"""The benchmark's own checks: tracing changes no output, self time is
computed right, and generated inputs depend only on the seed.

    python3 -m pytest perfbench/tests -q
"""
import threading

import pytest

from check import same_output
from tracing import Span, Tracer, bound, self_times
from workloads import WORKLOADS, make_inputs, pass_argv, write_strata_csv


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    from latekit import cli, io, simulation
    from latekit.data_model import PotentialDataset

    workload = WORKLOADS[name]
    input_path = make_inputs(workload, 11, tmp_path)
    originals = (simulation.draw_assignment, io.analyze_stratum, cli.run_study,
                 PotentialDataset.reveal)
    for out in ("plain", "traced"):
        (tmp_path / out).mkdir()
    assert cli.main(pass_argv(workload, input_path, tmp_path / "plain")) == 0
    tracer = Tracer()
    with bound(tracer):
        assert cli.main(pass_argv(workload, input_path, tmp_path / "traced")) == 0
    assert (simulation.draw_assignment, io.analyze_stratum, cli.run_study,
            PotentialDataset.reveal) == originals
    spans = tracer.spans
    ops = {s.op for s in spans if s.name in ("design.draw", "io.stratum")}
    assert len(ops) == workload.ops_per_pass
    for out in workload.outputs:
        assert (tmp_path / "traced" / out).read_bytes() == (tmp_path / "plain" / out).read_bytes()


def _span(sid, parent, start, end, thread=0):
    return Span(sid, f"s{sid}", parent, None, thread, start, end)


def test_self_time_nested_and_threaded():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),           # child on the root's thread
        _span(3, 2, 2.0, 3.0),           # grandchild: covers part of 2 only
        _span(4, 1, 3.0, 6.0, thread=1),  # pool-thread children overlapping
        _span(5, 1, 5.0, 7.0, thread=2),  # each other and span 2
        _span(6, 4, 3.5, 4.5, thread=1),
        _span(7, None, 20.0, 21.0),       # unrelated root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0)  # children cover [1, 7] once
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0 - 1.0)
    assert own[5] == pytest.approx(2.0)
    assert own[7] == pytest.approx(1.0)


def test_pool_thread_spans_hang_under_the_open_main_span():
    tracer = Tracer()
    both_open = threading.Barrier(2)

    def work():
        with tracer.span("inner"):
            both_open.wait(timeout=10)

    with tracer.span("outer"):
        workers = [threading.Thread(target=work) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
            assert not t.is_alive()
    spans = tracer.spans
    outer = next(s for s in spans if s.name == "outer")
    inner = [s for s in spans if s.name == "inner"]
    assert outer.parent is None
    assert [s.parent for s in inner] == [outer.sid, outer.sid]
    assert len({s.thread for s in inner}) == 2
    overlap_union = max(s.end for s in inner) - min(s.start for s in inner)
    assert self_times(spans)[outer.sid] == pytest.approx(outer.duration - overlap_union)


def test_strata_csv_depends_only_on_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    write_strata_csv(paths[0], 7, strata=60)
    write_strata_csv(paths[1], 7, strata=60)
    write_strata_csv(paths[2], 8, strata=60)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    text = paths[0].read_text().splitlines()
    assert text[0] == "stratum,z,w,y,x1,x2,x3"
    assert len({line.split(",")[0] for line in text[1:]}) == 60


def test_same_output_tolerance():
    assert same_output(b"a,1.0000000001\n", b"a,1.0\n")
    assert not same_output(b"a,1.00001\n", b"a,1.0\n")
    assert not same_output(b"a,1.0,inf\n", b"a,1.0,na\n")
