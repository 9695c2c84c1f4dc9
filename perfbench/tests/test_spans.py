"""Self-time arithmetic, per-layer aggregation and the layer wrappers."""

import json
import multiprocessing
from pathlib import Path

import pytest

import spans


def span(pid, ident, parent, name, start, end, **fields):
    record = {"pid": pid, "id": ident, "parent": parent, "name": name,
              "start": start, "end": end, "run": "t"}
    record.update(fields)
    return record


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(1, 1, None, "root", 0.0, 10.0),
        span(1, 2, 1, "a", 1.0, 4.0),
        span(1, 3, 1, "b", 3.0, 6.0),       # overlaps a: union is 1..6
        span(1, 4, 2, "leaf", 2.0, 3.0),
        span(1, 5, 1, "late", 9.5, 12.0),   # clipped to the parent's end
        span(2, 2, None, "other", 0.0, 1.0),  # same id, another process
    ]
    selfs = spans.self_times(tree)
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[(1, 2)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert selfs[(2, 2)] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_run():
    run = [
        span(1, 1, None, "startup", 0.0, 1.0),
        span(1, 2, None, "runner.run_policy", 2.0, 8.0),
        span(1, 3, 2, "workloads.build", 2.0, 4.0, records=1000,
             key="mcf@0.1"),
        span(1, 4, 3, "workloads.build", 2.5, 3.0, records=10,
             key="inner@0.1"),
        span(1, 5, 2, "sim.run", 4.0, 7.0, kernel="native", accesses=500),
        span(1, 6, 5, "sim.native", 4.0, 6.5, accepted=True),
        span(7, 1, None, "workloads.build", 3.0, 5.0, records=1000,
             key="mcf@0.1"),  # a worker rebuilding the same trace
    ]
    metrics = spans.layer_metrics(run, (0.0, 10.0))
    assert metrics["startup.s"] == pytest.approx(1.0)
    # Nested builds count once, at their outermost span.
    assert metrics["workloads.build.calls"] == 2
    assert metrics["workloads.build.s"] == pytest.approx(4.0)
    assert metrics["workloads.build.ns_per_record"] == pytest.approx(2e6)
    assert metrics["workloads.build.unique_share"] == pytest.approx(0.5)
    assert metrics["sim.run.s"] == pytest.approx(3.0)
    assert metrics["sim.run.self_s"] == pytest.approx(0.5)
    assert metrics["sim.kernel.native"] == 1
    assert metrics["sim.native.accepted"] == 1
    assert metrics["sim.ns_per_access"] == pytest.approx(6e6)
    assert metrics["runner.run_policy.self_s"] == pytest.approx(1.0)
    # 0..1 startup, 2..8 top-level spans: 3 s of the window are bare.
    assert metrics["unattributed.s"] == pytest.approx(3.0)


def _forked_child(recorder, work):
    work()


def test_forked_workers_write_their_own_spans(tmp_path):
    recorder = spans.Recorder(tmp_path, "fork")
    work = recorder.wrap("child.work", lambda: None)
    recorder.wrap("parent.work", lambda: None)()
    context = multiprocessing.get_context("fork")
    child = context.Process(target=_forked_child, args=(recorder, work))
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    recorder.flush()
    recorded = spans.load_spans(tmp_path)
    names = sorted((s["name"], s["pid"] == child.pid) for s in recorded)
    # The child neither lost its span nor re-wrote the parent's.
    assert names == [("child.work", True), ("parent.work", False)]


def _cell_kernel_and_result():
    from repro.sim.options import RunOptions
    from repro.sim.runner import run_policy

    result = run_policy("mcf", "lru", scale=0.02,
                        options=RunOptions(use_cache=False))
    return result.meta["kernel_used"], result.to_dict()


def test_wrapped_cell_takes_the_same_kernel(tmp_path):
    from repro.sim.native import load_extension

    plain_kernel, plain_result = _cell_kernel_and_result()
    recorder = spans.Recorder(tmp_path, "wrapped")
    installation = spans.install(recorder, experiments=False)
    try:
        wrapped_kernel, wrapped_result = _cell_kernel_and_result()
    finally:
        installation.restore()
    recorder.flush()
    assert wrapped_kernel == plain_kernel
    assert wrapped_result == plain_result
    if load_extension() is not None:
        assert wrapped_kernel == "native"
    runs = [s for s in spans.load_spans(tmp_path) if s["name"] == "sim.run"]
    assert [s["kernel"] for s in runs] == [plain_kernel]


def test_install_reaches_reexports_and_restore_undoes_it():
    import repro.sim
    from repro.sim import runner
    from repro.sim.simulator import Simulator

    run, run_policy = Simulator.__dict__["run"], runner.run_policy
    installation = spans.install(spans.Recorder(Path("unused"), "x"))
    assert Simulator.__dict__["run"] is not run
    # repro.sim re-exports run_policy; both names get the wrapper.
    assert repro.sim.run_policy is runner.run_policy is not run_policy
    installation.restore()
    assert Simulator.__dict__["run"] is run
    assert repro.sim.run_policy is runner.run_policy is run_policy


def test_boundaries_name_real_attributes():
    import importlib

    for module_name, path, _name, _annotate in spans.BOUNDARIES:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)


def test_benchmark_json_lists_every_per_layer_metric():
    import run

    table = run.metric_table()
    path = Path(run.harness.ROOT) / "BENCHMARK.json"
    declared = json.loads(path.read_text(encoding="utf-8"))
    assert declared["per_layer"] == table["per_layer"]
    assert [m["name"] for m in declared["end_to_end"]] == [
        m["name"] for m in table["end_to_end"]
    ]
    assert [w["name"] for w in declared["workloads"]] == list(
        run.cases.CASES
    )
