"""Parallel engine and persistent-store tests.

Locks in the engine's two core guarantees: the process slots return
bit-identical results to the serial path, and the store keys on
everything that can change a result (and nothing that can't).
"""

import json
import os

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
    """Every test gets an empty memo and its own empty store."""
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
        before = runner._MEMO_HITS["trace_builds"]
        run_policy("lucas", "lru", scale=SCALE)
        run_policy("lucas", "lin(4)", scale=SCALE)
        assert runner._MEMO_HITS["trace_builds"] == before + 1


class TestParallelEqualsSerial:
    def test_bit_identical_matrix(self, tmp_path, monkeypatch):
        serial = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE
        )
        # Fresh store + memo so the pool really computes in workers.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        clear_cache()
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
        clear_cache()  # memo gone; the store must carry the rerun
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
        run_policy("lucas", "lru", scale=SCALE)
        clear_cache()
        store = default_store()
        hits_before = store.hits
        run_policy("lucas", "lru", scale=SCALE)
        assert store.hits == hits_before + 1

    def test_scale_and_config_changes_miss(self):
        config = experiment_config()
        base = store_key("lucas", "lru", SCALE, config)
        assert store_key("lucas", "lru", SCALE, config) == base
        assert store_key("lucas", "lru", 2 * SCALE, config) != base
        assert store_key(
            "lucas", "lru", SCALE, scaled_config(512)
        ) != base
        assert store_key("lucas", "lin(4)", SCALE, config) != base
        assert store_key("mcf", "lru", SCALE, config) != base
        assert store_key(
            "lucas", "lru", SCALE, config, phase_interval=1000
        ) != base

    def test_spec_keys_are_canonical(self):
        config = experiment_config()
        assert store_key("lucas", " LRU ", SCALE, config) == store_key(
            "lucas", "lru", SCALE, config
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

    def test_no_store_env_disables_persistence(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        assert default_store() is None
        run_policy("lucas", "lru", scale=SCALE)  # still works, memo-only

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
    def test_prewarm_tasks_cover_declared_policies(self):
        from repro.experiments.common import prewarm_tasks

        tasks = prewarm_tasks(
            ["figure9"], benchmarks=["lucas"], scale=SCALE
        )
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
        assert "prewarm" in out.err

    def test_prewarm_tasks_cover_prefetch_cells(self):
        # The prefetch experiment declares both policies with and
        # without a prefetcher, so its render pass is all cache hits.
        from repro.experiments.common import prewarm_tasks

        tasks = prewarm_tasks(["prefetch"], scale=SCALE)
        assert len(tasks) == 16
        assert {(task.policy_spec, task.prefetch_degree)
                for task in tasks} == {
            ("lru", None), ("lin(4)", None), ("lru", 2), ("lin(4)", 2),
        }
        run_grid(
            prewarm_tasks(["prefetch"], benchmarks=["lucas"], scale=SCALE),
            options=RunOptions(workers=2),
        )
        from repro.experiments.prefetch_interaction import run

        simulations = runner.cache_stats()["simulations"]
        run(scale=SCALE, benchmarks=["lucas"])
        assert runner.cache_stats()["simulations"] == simulations


class TestPrefetchCellKeys:
    """``prefetch_degree`` is part of the cell: keyed, never aliased."""

    def test_prefetch_and_plain_cells_never_alias(self):
        plain = run_policy("lucas", "lru", scale=SCALE)
        prefetched = run_policy("lucas", "lru", scale=SCALE,
                                prefetch_degree=2)
        assert prefetched.demand_misses < plain.demand_misses
        assert runner._memo_key("lucas", "lru", SCALE, None, None) != (
            runner._memo_key("lucas", "lru", SCALE, None, None, 2)
        )
        config = experiment_config()
        keys = {
            store_key("lucas", "lru", SCALE, config),
            store_key("lucas", "lru", SCALE, config, prefetch_degree=2),
            store_key("lucas", "lru", SCALE, config, prefetch_degree=4),
        }
        assert len(keys) == 3
        # Both land in the store under their own keys and reload as
        # themselves.
        clear_cache()
        assert run_policy("lucas", "lru", scale=SCALE,
                          prefetch_degree=2).to_dict() == prefetched.to_dict()
        assert run_policy("lucas", "lru",
                          scale=SCALE).to_dict() == plain.to_dict()
        assert len(default_store()) == 2

    def test_plain_cell_keys_unchanged(self, monkeypatch):
        from repro import obs
        from repro.sim import store as store_module
        from repro.workloads import canonical_workload_spec

        assert runner._memo_key(" LUCAS ", "LRU", SCALE, None, None) == (
            canonical_workload_spec("lucas"), "lru", SCALE, None, None,
            obs.metrics_enabled(),
        )
        hashed = []
        dumps = store_module.json.dumps

        def capture(fields, **kwargs):
            hashed.append(set(fields))
            return dumps(fields, **kwargs)

        monkeypatch.setattr(store_module.json, "dumps", capture)
        config = experiment_config()
        store_key("lucas", "lru", SCALE, config)
        store_key("lucas", "lru", SCALE, config, prefetch_degree=2)
        plain, prefetched = hashed
        assert plain == {
            "version", "workload", "policy_spec", "scale", "config",
            "phase_interval", "metrics", "code", "policy_code",
            "workload_code",
        }
        assert prefetched == plain | {"prefetch_degree"}

    def test_interrupted_prefetch_prewarm_resumes_missing_cells(self):
        from repro.sim.resilience import load_journal

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
            workers=1, run_id="run-test-prefetch",
            progress=interrupt_after_two,
        ))
        assert partial.interrupted
        state = load_journal("run-test-prefetch")
        assert len(state.completed) == 2
        journaled = {record.get("prefetch_degree")
                     for record in state.completed.values()}
        assert journaled <= {None, 2}

        clear_cache()
        resumed = run_grid(tasks, options=RunOptions(
            workers=1, resume="run-test-prefetch",
        ))
        assert not resumed.failures
        assert {task: resumed.results[task].to_dict()
                for task in tasks} == want
        reports = {report.task: report for report in resumed.reports}
        assert {task for task in tasks if reports[task].resumed} == set(
            finished
        )
        assert sum(not report.cache_hit for report in reports.values()) == 2
