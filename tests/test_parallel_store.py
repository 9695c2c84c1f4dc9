"""Parallel engine and persistent-store tests.

Locks in the engine's two core guarantees: the process slots return
bit-identical results to the serial path, and the store keys on
everything that can change a result (and nothing that can't).
"""

import hashlib
import json
import os
import shutil
from dataclasses import replace

import pytest

from repro.config import scaled_config
from repro.sim.options import RunOptions
from repro.sim.parallel import Task, run_grid
from repro.sim import runner
from repro.sim.runner import clear_cache, packed_trace, run_policy
from repro.sim.store import (
    ResultStore,
    default_store,
    source_digest,
    store_key,
)
from repro.sim.suite import EXPORT_FIELDS, SuiteResult, run_suite
from repro.workloads import experiment_config

SCALE = 0.05
BENCHMARKS = ("lucas", "mcf")
POLICIES = ("lru", "lin(4)")


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """Every test gets its own empty store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


def assert_results_identical(first, second):
    for field in EXPORT_FIELDS:
        assert getattr(first, field) == getattr(second, field), field
    assert first.cost_distribution.counts == second.cost_distribution.counts
    assert first.cost_distribution.cost_sum == (
        second.cost_distribution.cost_sum
    )
    assert first.delta_summary == second.delta_summary


class TestTraceMemo:
    def test_same_object_served_per_process(self):
        first = packed_trace("lucas", scale=SCALE)
        assert packed_trace("lucas", scale=SCALE) is first
        assert packed_trace("lucas", scale=2 * SCALE) is not first

    def test_memo_matches_direct_build(self):
        from repro.trace.packed import pack_trace
        from repro.workloads import build_workload

        memoized = packed_trace("lucas", scale=SCALE)
        direct = pack_trace(build_workload("lucas", SCALE).to_accesses())
        assert memoized == direct
        assert memoized.content_digest() == direct.content_digest()

    def test_bounded_and_cleared(self):
        packed_trace("lucas", scale=SCALE)
        assert runner._TRACE_CACHE
        # Fill past the bound with distinct scales of one tiny workload;
        # the cache must never exceed TRACE_CACHE_MAX entries.
        for step in range(runner.TRACE_CACHE_MAX + 3):
            packed_trace("lucas", scale=SCALE * (1 + step) / 7)
            assert len(runner._TRACE_CACHE) <= runner.TRACE_CACHE_MAX
        clear_cache()
        assert not runner._TRACE_CACHE

    def test_run_policy_reuses_the_memoized_trace(self):
        before = runner._COUNTERS["trace_builds"]
        run_policy("lucas", "lru", scale=SCALE)
        run_policy("lucas", "lin(4)", scale=SCALE)
        assert runner._COUNTERS["trace_builds"] == before + 1


class TestParallelEqualsSerial:
    def test_bit_identical_matrix(self, tmp_path, monkeypatch):
        serial = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE
        )
        # A fresh store, so the pool really computes in workers.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert not parallel.failures
        for benchmark in BENCHMARKS:
            for policy in POLICIES:
                assert_results_identical(
                    serial.result(benchmark, policy),
                    parallel.result(benchmark, policy),
                )

    def test_meta_surfaced_in_json(self):
        suite = run_suite(
            policies=("lru",), benchmarks=("lucas",), scale=SCALE,
            options=RunOptions(workers=2),
        )
        payload = json.loads(suite.to_json())
        meta = payload["meta"]
        assert meta["workers"] == 2
        assert meta["cache"] == {"hits": 0, "misses": 1}
        assert len(meta["tasks"]) == 1
        assert meta["tasks"][0]["ok"] is True
        assert meta["tasks"][0]["wall_time_s"] > 0

    def test_warm_store_turns_reruns_into_cache_hits(self):
        first = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert first.meta["cache"]["misses"] == 4
        second = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert second.meta["cache"] == {"hits": 4, "misses": 0}
        for benchmark in BENCHMARKS:
            for policy in POLICIES:
                assert_results_identical(
                    first.result(benchmark, policy),
                    second.result(benchmark, policy),
                )


class TestInProcessGrid:
    """``workers=0``: the same scheduler and lifecycle, no slot."""

    TASKS = [
        Task(benchmark, policy, SCALE)
        for benchmark in BENCHMARKS for policy in POLICIES
    ]

    def test_runs_every_cell_here_and_writes_no_journal(
        self, monkeypatch, tmp_path
    ):
        from repro.sim import parallel

        def no_slot(self, payload):
            raise AssertionError("a workers=0 grid started a slot")

        monkeypatch.setattr(parallel._Slot, "send", no_slot)
        grid = run_grid(self.TASKS, RunOptions(workers=0))
        assert not grid.failures and grid.workers == 0
        assert {report.worker for report in grid.reports} == {os.getpid()}
        assert len(default_store()) == len(self.TASKS)
        assert not (tmp_path / "store" / "runs").exists()

    def test_interrupted_run_resumes_only_the_missing_cells(self, tmp_path):
        baseline = run_grid(self.TASKS, RunOptions(use_cache=False))
        want = {task: baseline.results[task].to_dict()
                for task in self.TASKS}

        def interrupt_after_two(report, done, total):
            if done >= 2:
                raise KeyboardInterrupt

        partial = run_grid(
            self.TASKS, RunOptions(progress=interrupt_after_two)
        )
        assert partial.interrupted and len(partial.results) == 2
        simulations = runner.cache_stats()["simulations"]
        # Re-running the same grid is resuming it: the two finished
        # cells come from the store, and only the other two simulate.
        rerun = run_grid(self.TASKS)
        assert runner.cache_stats()["simulations"] - simulations == 2
        assert {report.task for report in rerun.reports
                if report.cache_hit} == set(partial.results)
        assert {task: rerun.results[task].to_dict()
                for task in self.TASKS} == want
        assert not (tmp_path / "store" / "runs").exists()

    def test_tasks_sharing_a_store_key_execute_once(self):
        # Both tasks join one execution before it runs here.
        implicit = Task("lucas", "lru", SCALE)
        explicit = Task("lucas", "lru", SCALE, config=experiment_config())
        simulations = runner.cache_stats()["simulations"]
        grid = run_grid([implicit, explicit], RunOptions(workers=0))
        assert runner.cache_stats()["simulations"] - simulations == 1
        assert grid.results[implicit] is grid.results[explicit]
        assert grid.cache_hits == 0

    def test_a_shared_execution_counts_its_wall_once(self):
        # " MCF " and "mcf" share one store key and one execution, so
        # the grid was busy for that execution's wall, not twice it.
        tasks = [Task("mcf", "lru", SCALE), Task(" MCF ", "lru", SCALE)]
        options = RunOptions(workers=0, use_cache=False)
        run_grid(tasks, options)  # builds the trace outside the timing
        grid = run_grid(tasks, options)
        assert grid.cache_misses == 2 and not grid.failures
        assert grid.reports[0].wall_time == grid.reports[1].wall_time
        assert 0 < grid.utilization <= 1.0

    def test_suite_digest_matches_two_slots(self, tmp_path, monkeypatch):
        in_process = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "slots"))
        clear_cache()
        slots = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2),
        )
        assert in_process.meta["workers"] == 0
        assert slots.meta["workers"] == 2
        assert in_process.content_digest() == slots.content_digest()

    def test_deadline_is_armed_only_on_the_main_thread(self):
        import signal
        import threading

        from repro.sim.parallel import execute_cell

        payload = (self.TASKS[0], None, 30.0, None, 1)
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(execute_cell(payload))
        )
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        # signal.signal raises off the main thread; the cell runs
        # without a deadline instead of failing.
        assert replies[0][0] == "ok", replies[0][4]
        handler = signal.getsignal(signal.SIGALRM)
        assert execute_cell(payload)[0] == "ok"
        assert signal.getsignal(signal.SIGALRM) == handler
        assert signal.alarm(0) == 0


class TestPartialFailure:
    def test_bad_policy_becomes_failure_entry(self):
        suite = run_suite(
            policies=("lru", "no-such-policy"), benchmarks=("lucas",),
            scale=SCALE, options=RunOptions(workers=2, max_retries=0),
        )
        assert suite.result("lucas", "lru").instructions > 0
        assert "no-such-policy" in suite.failures["lucas"]
        assert "unknown policy spec" in suite.failures["lucas"][
            "no-such-policy"
        ]
        # Renderings tolerate the hole.
        assert "FAILED" in suite.to_text()
        payload = json.loads(suite.to_json())
        assert len(payload["runs"]) == 1
        assert payload["failures"]["lucas"]
        assert suite.to_csv().count("\n") == 2  # header + one row

    def test_retries_are_bounded(self):
        grid = run_grid(
            [Task(benchmark="lucas", policy_spec="no-such-policy",
                  scale=SCALE)],
            options=RunOptions(workers=2, max_retries=2),
        )
        assert not grid.results
        (report,) = grid.reports
        assert report.ok is False
        assert report.attempts == 3

    def test_serial_workers_path_matches_pool(self):
        grid = run_grid(
            [Task(benchmark="lucas", policy_spec="lru", scale=SCALE)],
            options=RunOptions(workers=1),
        )
        (task, result), = grid.results.items()
        assert result.instructions > 0
        assert grid.reports[0].ok


class TestStoreKeyDedup:
    def test_tasks_sharing_a_store_key_execute_once(self):
        # config=None means the experiment config, so these two
        # distinct Tasks share one store key.
        implicit = Task(benchmark="lucas", policy_spec="lru", scale=SCALE)
        explicit = Task(
            benchmark="lucas", policy_spec="lru", scale=SCALE,
            config=experiment_config(),
        )
        assert implicit != explicit
        grid = run_grid(
            [implicit, explicit], options=RunOptions(workers=2)
        )
        assert not grid.failures
        # One execution: both tasks hold the very object it returned.
        assert grid.results[implicit] is grid.results[explicit]
        assert grid.cache_hits == 0
        first, second = grid.reports
        assert first.ok and second.ok
        assert (first.worker, first.attempts) == (
            second.worker, second.attempts
        )

    def test_more_slots_than_cores_run_each_cell_once(self):
        # Cells outnumber slots and slots outnumber cores: each freed
        # slot goes to one waiting cell and every cell settles once,
        # with the serial loop's result.
        tasks = [
            Task(benchmark=benchmark, policy_spec=policy, scale=SCALE)
            for benchmark in ("lucas", "mcf", "art")
            for policy in ("lru", "lin(4)", "sbar")
        ]
        slots = min(2 * (os.cpu_count() or 1), len(tasks) - 1)
        grid = run_grid(
            tasks, options=RunOptions(workers=slots, use_cache=False)
        )
        assert not grid.failures
        assert sorted(report.task.label for report in grid.reports) == (
            sorted(task.label for task in tasks)
        )
        for task in tasks:
            assert_results_identical(grid.results[task], run_policy(
                task.benchmark, task.policy_spec, scale=SCALE,
                options=RunOptions(use_cache=False),
            ))


class TestStoreKeying:
    def test_identical_rerun_hits(self):
        # The store is the only result cache: a repeat in one process
        # is a store hit, and simulates nothing.
        first = run_policy("lucas", "lru", scale=SCALE)
        store = default_store()
        hits_before = store.hits
        simulations = runner.cache_stats()["simulations"]
        second = run_policy("lucas", "lru", scale=SCALE)
        assert store.hits == hits_before + 1
        assert runner.cache_stats()["simulations"] == simulations
        assert second.to_dict() == first.to_dict()

    def test_rerun_without_a_store_simulates_again(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        first = run_policy("lucas", "lru", scale=SCALE)
        simulations = runner.cache_stats()["simulations"]
        second = run_policy("lucas", "lru", scale=SCALE)
        assert runner.cache_stats()["simulations"] == simulations + 1
        assert second.to_dict() == first.to_dict()

    def test_scale_and_config_changes_miss(self):
        config = experiment_config()
        base = store_key(Task("lucas", "lru", SCALE, config))
        assert store_key(Task("lucas", "lru", SCALE, config)) == base
        assert store_key(Task("lucas", "lru", SCALE)) == base
        assert store_key(Task("lucas", "lru", 2 * SCALE, config)) != base
        assert store_key(
            Task("lucas", "lru", SCALE, scaled_config(512))
        ) != base
        assert store_key(Task("lucas", "lin(4)", SCALE, config)) != base
        assert store_key(Task("mcf", "lru", SCALE, config)) != base
        assert store_key(
            Task("lucas", "lru", SCALE, config, phase_interval=1000)
        ) != base

    def test_spec_keys_are_canonical(self):
        assert store_key(Task("lucas", " LRU ", SCALE)) == store_key(
            Task("lucas", "lru", SCALE)
        )

    def test_result_roundtrip_is_exact(self, tmp_path):
        result = run_policy("mcf", "lin(4)", scale=SCALE,
                            options=RunOptions(use_cache=False))
        store = ResultStore(tmp_path / "roundtrip")
        store.save("key", result)
        loaded = store.load("key")
        assert_results_identical(result, loaded)
        assert loaded.ipc == result.ipc
        assert loaded.policy_name == result.policy_name

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "corrupt")
        entry = store.root / "ba" / "bad.json"
        entry.parent.mkdir(parents=True)
        entry.write_text("{not json")
        assert store.load("bad") is None
        assert not entry.exists()

    def test_entry_that_is_no_result_is_quarantined(self, tmp_path):
        # The digest holds, but the payload is not a SimResult: load
        # reads a miss and moves the entry aside; load_payload, which
        # takes any dict, still serves a fresh one.
        store = ResultStore(tmp_path / "shape")
        store.save_payload("odd", {"ipc": 1})
        assert store.load_payload("odd") == {"ipc": 1}
        assert store.load("odd") is None
        assert not store.contains("odd")
        assert store.quarantined == 1
        assert (store.quarantine_dir / "odd.json").exists()

    def test_no_store_env_disables_persistence(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        assert default_store() is None
        run_policy("lucas", "lru", scale=SCALE)  # still works, unsaved

    def test_code_version_covers_native_sources(self, tmp_path):
        # Results depend on the C kernel and trace generator too: an
        # edit to either must invalidate stored results.
        package = tmp_path / "pkg"
        (package / "_native").mkdir(parents=True)
        (package / "sim.py").write_text("x = 1\n")
        kernel = package / "_native" / "replaykernel.c"
        kernel.write_text("int x = 1;\n")
        before = source_digest(package)
        kernel.write_text("int x = 2;\n")
        edited = source_digest(package)
        assert edited != before
        (package / "_native" / "tracegen.c").write_text("int y;\n")
        assert source_digest(package) != edited


class TestSuiteResultFixes:
    def test_empty_matrix_csv_is_header_only(self):
        suite = run_suite(policies=("lru",), benchmarks=(), scale=SCALE)
        csv_text = suite.to_csv()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("benchmark,policy")

    def test_to_csv_does_not_mutate_rows(self):
        suite = run_suite(
            policies=("lru",), benchmarks=("lucas",), scale=SCALE
        )
        assert suite.to_csv() == suite.to_csv()
        rows = suite.to_rows()
        suite.to_csv()
        assert isinstance(rows[0]["cost_histogram_pct"], list)


class TestExperimentsPrewarm:
    def test_cells_cover_declared_policies(self):
        from repro.experiments import figure9

        tasks = figure9.cells(SCALE, ["lucas"])
        assert {task.policy_spec for task in tasks} == {
            "lru", "lin(4)", "sbar",
        }
        assert all(task.benchmark == "lucas" for task in tasks)

    def test_experiments_cli_with_workers(self, capsys):
        from repro.experiments.__main__ import main

        code = main([
            "table1", "--benchmarks", "lucas", "--scale", str(SCALE),
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr()
        assert "Table 1" in out.out
        assert "[grid: 1 tasks, 2 workers," in out.err

    def test_render_pass_after_the_grid_simulates_only_figure1(
        self, monkeypatch
    ):
        # Every experiment's cells run in the pool, calibration's,
        # figure11's and sensitivity's included; rendering then reads
        # the grid's results.  figure1's six toy runs on list traces are the only
        # simulations left in this process.
        from repro.experiments.__main__ import main
        from repro.sim.simulator import Simulator

        parent = os.getpid()
        traces = []
        original = Simulator.run

        def counting(self, trace):
            if os.getpid() == parent:
                traces.append(type(trace).__name__)
            return original(self, trace)

        monkeypatch.setattr(Simulator, "run", counting)
        assert main(["--scale", "0.02", "--workers", "2"]) == 0
        assert traces == ["list"] * 6

    def test_cells_cover_prefetch_cells(self):
        # The prefetch experiment declares both policies with and
        # without a prefetcher, so its render pass is all cache hits.
        from repro.experiments import prefetch_interaction

        tasks = prefetch_interaction.cells(SCALE, None)
        assert len(tasks) == 16
        assert {(task.policy_spec, task.prefetch_degree)
                for task in tasks} == {
            ("lru", None), ("lin(4)", None), ("lru", 2), ("lin(4)", 2),
        }
        run_grid(
            prefetch_interaction.cells(SCALE, ["lucas"]),
            options=RunOptions(workers=2),
        )
        simulations = runner.cache_stats()["simulations"]
        prefetch_interaction.run(scale=SCALE, benchmarks=["lucas"])
        assert runner.cache_stats()["simulations"] == simulations


class TestPrefetchCellKeys:
    """``prefetch_degree`` is part of the cell: keyed, never aliased."""

    def test_prefetch_and_plain_cells_never_alias(self):
        plain = run_policy("lucas", "lru", scale=SCALE)
        prefetched = run_policy("lucas", "lru", scale=SCALE,
                                prefetch_degree=2)
        assert prefetched.demand_misses < plain.demand_misses
        assert Task("lucas", "lru", SCALE).canonical() != (
            Task("lucas", "lru", SCALE, prefetch_degree=2).canonical()
        )
        keys = {
            store_key(Task("lucas", "lru", SCALE)),
            store_key(Task("lucas", "lru", SCALE, prefetch_degree=2)),
            store_key(Task("lucas", "lru", SCALE, prefetch_degree=4)),
        }
        assert len(keys) == 3
        # Both land in the store under their own keys and reload as
        # themselves.
        assert run_policy("lucas", "lru", scale=SCALE,
                          prefetch_degree=2).to_dict() == prefetched.to_dict()
        assert run_policy("lucas", "lru",
                          scale=SCALE).to_dict() == plain.to_dict()
        assert len(default_store()) == 2

    def test_plain_cell_keys_unchanged(self, monkeypatch):
        from repro.sim import store as store_module
        from repro.workloads import canonical_workload_spec

        task = Task(" LUCAS ", "LRU", SCALE)
        assert task.canonical() == Task(
            canonical_workload_spec("lucas"), "lru", SCALE
        )
        assert store_key(task) == store_key(task.canonical())
        hashed = []
        dumps = store_module.json.dumps

        def capture(fields, **kwargs):
            hashed.append(set(fields))
            return dumps(fields, **kwargs)

        monkeypatch.setattr(store_module.json, "dumps", capture)
        store_key(Task("lucas", "lru", SCALE))
        store_key(Task("lucas", "lru", SCALE, prefetch_degree=2))
        plain, prefetched = hashed
        assert plain == {
            "version", "workload", "policy_spec", "scale", "config",
            "phase_interval", "metrics", "code", "policy_code",
            "workload_code",
        }
        assert prefetched == plain | {"prefetch_degree"}

    def test_interrupted_prefetch_prewarm_resumes_missing_cells(self):
        tasks = [
            Task("lucas", policy, SCALE, prefetch_degree=degree)
            for degree in (None, 2) for policy in POLICIES
        ]
        baseline = run_grid(tasks, options=RunOptions(workers=1))
        want = {task: baseline.results[task].to_dict() for task in tasks}
        default_store().clear()
        clear_cache()

        finished = []

        def interrupt_after_two(report, done, total):
            finished.append(report.task)
            if done >= 2:
                raise KeyboardInterrupt

        partial = run_grid(tasks, options=RunOptions(
            workers=1, progress=interrupt_after_two,
        ))
        assert partial.interrupted
        assert set(partial.results) == set(finished)

        clear_cache()
        rerun = run_grid(tasks, options=RunOptions(workers=1))
        assert not rerun.failures
        assert {task: rerun.results[task].to_dict()
                for task in tasks} == want
        reports = {report.task: report for report in rerun.reports}
        assert {task for task in tasks if reports[task].cache_hit} == set(
            finished
        )
        assert sum(not report.cache_hit for report in reports.values()) == 2


class TestTaskIsTheCell:
    """Every key, record and label of a cell derives from its Task."""

    #: A value other than the base cell's, for every Task field.
    VARIANTS = {
        "benchmark": "mcf",
        "policy_spec": "lin(4)",
        "scale": 2 * SCALE,
        "config": scaled_config(512),
        "phase_interval": 1000,
        "prefetch_degree": 2,
    }

    @pytest.mark.parametrize("task,key", [
        (Task("mcf", "lru", 0.25), "6ded23d3c3b474d0329660dcfad8e530"),
        (Task("mcf", "sbar", 0.25, phase_interval=500_000),
         "0b6df767388b930fcbd2392e4465500f"),
        (Task("mcf", "lru", 0.25, prefetch_degree=2),
         "2b53e1b0ccf95f1e421c719501a99ff3"),
        (Task(" MCF ", "LIN(4)", 1.0), "24ff5cf1271a2a333e1a84b66052d0f5"),
        (Task("art", "cbs-global", 0.02, config=scaled_config(256),
              prefetch_degree=2),
         "6712e1b1f5b2e52c2d27774fd4facc74"),
    ], ids=["plain", "phase", "prefetch", "spelling", "config"])
    def test_store_keys_are_pinned(self, monkeypatch, task, key):
        # A moved key silently turns every user's store cold.  The
        # source hash is pinned; everything else is the real key.
        from repro import obs
        from repro.sim import store as store_module

        monkeypatch.setattr(store_module, "code_version",
                            lambda: "pinned-code")
        monkeypatch.setattr(obs, "metrics_enabled", lambda: False)
        assert store_key(task) == key

    def test_plain_cell_records_its_four_fields(self):
        assert Task("lucas", "lru", SCALE).to_dict() == {
            "benchmark": "lucas", "policy": "lru", "scale": SCALE,
            "phase_interval": None,
        }

    def test_variants_cover_every_field(self):
        import dataclasses

        assert set(self.VARIANTS) == {
            spec.name for spec in dataclasses.fields(Task)
        }

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_every_field_reaches_keys_label_and_records(self, name):
        import dataclasses

        from repro.sim.parallel import TaskReport
        from repro.sim.runner import run_task

        base = Task("lucas", "lru", SCALE)
        task = dataclasses.replace(base, **{name: self.VARIANTS[name]})
        assert store_key(task) != store_key(base)
        if name != "scale":
            # A grid runs at one scale; labels name the rest.
            assert task.label != base.label
        record = task.to_dict()
        assert record != base.to_dict()
        assert json.loads(json.dumps(record)) == record
        report = TaskReport(task=task, ok=True).to_dict()
        assert {field: report[field] for field in record} == record
        # The stored entry records the canonical task.
        run_task(task)
        (entry,) = default_store().entry_paths()
        stored = json.loads(entry.read_text())["key_fields"]
        assert stored == task.canonical().to_dict()
        assert stored != base.canonical().to_dict()

    def test_labels_name_every_set_field(self):
        from repro.sim.runner import cell_label

        task = Task("mcf", "sbar", SCALE, phase_interval=500_000,
                    prefetch_degree=2)
        assert task.label == cell_label(task) == (
            "mcf/sbar@phase=500000@prefetch=2"
        )
        assert Task("mcf", "sbar", SCALE).label == "mcf/sbar"

    def test_parallel_task_is_the_runner_task(self):
        from repro.sim import parallel

        assert parallel.Task is runner.Task


class TestLeanGridCells:
    """A grid cell is keyed and probed once, and stored byte-identically."""

    def test_each_cell_is_keyed_and_probed_once(self, tmp_path, monkeypatch):
        # The slot trusts the parent's probe: one store_key and one
        # ResultStore.load per cell across parent and workers (the
        # slots are forked after the patch, so they log too).
        from repro.sim import parallel
        from repro.sim import store as store_module

        log = tmp_path / "calls.log"

        def logged(name, function):
            def wrapper(*args, **kwargs):
                with open(log, "a") as handle:
                    handle.write(name + "\n")
                return function(*args, **kwargs)
            return wrapper

        key = logged("store_key", store_module.store_key)
        monkeypatch.setattr(store_module, "store_key", key)
        monkeypatch.setattr(parallel, "store_key", key)
        monkeypatch.setattr(ResultStore, "load",
                            logged("load", ResultStore.load))
        tasks = [Task(benchmark, policy, SCALE)
                 for benchmark in BENCHMARKS for policy in POLICIES]
        grid = run_grid(tasks, options=RunOptions(workers=2))
        assert not grid.failures
        assert grid.cache_misses == len(tasks)
        calls = log.read_text().split()
        assert calls.count("store_key") == len(tasks)
        assert calls.count("load") == len(tasks)
        # The slots still wrote every result back.
        assert len(default_store()) == len(tasks)

    def test_uncached_grid_stores_nothing(self):
        tasks = [Task("lucas", policy, SCALE) for policy in POLICIES]
        grid = run_grid(tasks, options=RunOptions(workers=2,
                                                  use_cache=False))
        assert not grid.failures
        assert len(default_store()) == 0

    def test_config_memo_tells_int_from_float(self):
        config = scaled_config(256)
        floated = replace(
            config, memory=replace(config.memory, bus_occupancy=16.0)
        )
        assert config == floated
        assert store_key(Task("art", "lru", SCALE, config)) != store_key(
            Task("art", "lru", SCALE, floated)
        )

    @pytest.mark.parametrize("task,key,digest", [
        (Task("mcf", "lru", 0.02), "6b68d7ef44ee4eee28f9c59d9d64ceca",
         "5767259117e0a771bfb1400582fd5729e25dbc5ef9f76637b2b4b68138a5a936"),
        (Task("art", "sbar", 0.02, phase_interval=5000),
         "dfe08cf41f776f433f744f03dfe220bc",
         "e6afd2d89d832ebf951f73615dacfc3f81794d056ea90d8681ee70d96dd7de3f"),
    ], ids=["plain", "phases"])
    def test_stored_bytes_are_pinned(self, monkeypatch, task, key, digest):
        # A stored file is read by older and newer checkouts alike:
        # its bytes (hashed here) must not move with the encoder.
        from repro import obs
        from repro.sim import store as store_module

        monkeypatch.setattr(store_module, "code_version",
                            lambda: "pinned-code")
        monkeypatch.setattr(obs, "metrics_enabled", lambda: False)
        runner.run_task(task)
        assert store_key(task) == key
        stored = default_store()._path(key).read_bytes()
        assert hashlib.sha256(stored).hexdigest() == digest

    def test_save_remakes_a_removed_shard(self, tmp_path):
        store = ResultStore(tmp_path / "shards")
        key = "ab" + "0" * 30
        store.save_payload(key, {"value": 1})
        shutil.rmtree(store.root)
        store.save_payload(key, {"value": 2})
        assert store.load_payload(key) == {"value": 2}
