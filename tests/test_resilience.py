"""Resilience-layer unit tests: backoff, journal, RunOptions.

The end-to-end fault-injection properties (digest equality under
chaos, re-running an interrupted grid, slot rebuild) live in
``tests/test_chaos.py``; this file locks in the primitives those
tests compose — all deterministic, none needing a worker pool.
"""

import argparse
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import common_cli
from repro.sim.chaos import ChaosConfig
from repro.sim.options import RunOptions
from repro.sim.parallel import CellScheduler, Task, run_grid
from repro.sim.resilience import (
    RunJournal,
    backoff_delay,
    journal_root,
    list_runs,
    load_journal,
    new_run_id,
)
from repro.sim.runner import clear_cache, run_policy

SCALE = 0.05


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """Every test gets its own empty store and journal directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


def _task(policy="lru"):
    return Task(benchmark="lucas", policy_spec=policy, scale=SCALE)


class TestBackoff:
    def test_deterministic_in_seed_label_attempt(self):
        delay = backoff_delay(0.05, 2.0, 1, "mcf/lru", seed=1)
        assert delay == backoff_delay(0.05, 2.0, 1, "mcf/lru", seed=1)
        assert delay != backoff_delay(0.05, 2.0, 1, "mcf/lin(4)", seed=1)
        assert delay != backoff_delay(0.05, 2.0, 1, "mcf/lru", seed=2)
        assert delay != backoff_delay(0.05, 2.0, 2, "mcf/lru", seed=1)

    def test_exponential_with_bounded_jitter(self):
        for attempt in range(1, 6):
            raw = 0.05 * 2 ** (attempt - 1)
            delay = backoff_delay(0.05, 100.0, attempt, "x")
            assert raw <= delay < 2 * raw

    def test_cap_and_degenerate_inputs(self):
        assert backoff_delay(0.05, 2.0, 30, "x") == 2.0
        assert backoff_delay(0.0, 2.0, 3, "x") == 0.0
        assert backoff_delay(-1.0, 2.0, 3, "x") == 0.0
        assert backoff_delay(0.05, 2.0, 0, "x") == 0.0


class TestRunJournal:
    def test_roundtrip(self):
        journal = RunJournal.create(
            run_id="run-test-0001", meta={"workers": 2, "tasks": 1}
        )
        task = _task()
        journal.task_started(task, 1)
        journal.task_failed(task, "Boom: no", "Traceback (fake)", 1)
        journal.task_started(task, 2)
        journal.task_finished(
            task, "abc123", cache_hit=False, resumed=False, wall=0.5,
            worker=321, attempts=2,
        )
        journal.run_finished(completed=1, failed=0, interrupted=False)

        state = load_journal("run-test-0001")
        assert state.run_id == "run-test-0001"
        assert state.meta["workers"] == 2
        assert state.meta["run_id"] == "run-test-0001"
        assert list(state.completed) == ["abc123"]
        record = state.completed["abc123"]
        assert record["attempts"] == 2
        assert record["worker"] == 321
        assert record["benchmark"] == "lucas"
        assert state.failed[0]["error"] == "Boom: no"
        assert state.failed[0]["traceback"] == "Traceback (fake)"
        assert state.finished

    def test_every_event_is_flushed(self):
        journal = RunJournal.create(run_id="run-test-flush")
        journal.task_started(_task(), 1)
        # No close(): the lines must already be durable on disk.
        lines = journal.path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "run_started"
        assert json.loads(lines[1])["event"] == "task_started"
        journal.close()

    def test_torn_trailing_line_is_ignored(self):
        journal = RunJournal.create(run_id="run-test-torn")
        journal.task_finished(
            _task(), "key1", cache_hit=False, resumed=False, wall=0.1,
            worker=None, attempts=1,
        )
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"event": "task_fini')  # killed mid-write
        state = load_journal("run-test-torn")
        assert list(state.completed) == ["key1"]
        assert not state.finished

    def test_unknown_run_id_lists_known_runs(self):
        RunJournal.create(run_id="run-test-known").close()
        with pytest.raises(FileNotFoundError) as excinfo:
            load_journal("run-test-missing")
        assert "run-test-missing" in str(excinfo.value)
        assert "run-test-known" in str(excinfo.value)

    def test_list_runs_enumerates(self):
        assert list_runs() == []
        RunJournal.create(run_id="job-test-a").run_finished(0, 0)
        RunJournal.create(run_id="job-test-b").close()
        assert [s.run_id for s in list_runs()] == [
            "job-test-a", "job-test-b",
        ]

    def test_no_store_disables_journaling(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        assert journal_root() is None
        assert RunJournal.create("job-test-off") is None
        assert list_runs() == []

    def test_new_run_id_shape(self):
        run_id = new_run_id()
        assert re.match(r"^job-\d{8}-\d{6}-[0-9a-f]{6}$", run_id)

    def test_service_job_ids_list_apart_from_grid_runs(self):
        # A cache an older version used holds grid journals too; the
        # service lists only its own.
        job_id = new_run_id()
        RunJournal.create(run_id=job_id).close()
        RunJournal.create(run_id="run-test-a").close()
        assert [s.run_id for s in list_runs()] == [job_id]


class TestGridJournalIntegration:
    def test_run_grid_writes_no_journal(self, tmp_path):
        for workers in (0, 1):
            grid = run_grid([_task()], options=RunOptions(workers=workers))
            assert not grid.failures
            assert "run_id" not in grid.meta()
        assert not (tmp_path / "store" / "runs").exists()

    def test_cache_hits_are_journaled_as_such(self):
        # A service job journals its cells; a store hit is recorded as
        # one.  The cell is in the store, so admission schedules
        # nothing and no event loop is needed.
        from repro.service.server import JobService, ServiceConfig

        run_grid([_task()])
        job, _ = JobService(ServiceConfig()).submit_job(
            "t", ["lucas"], ["lru"], scale=SCALE, job_id="job-test-hit",
        )
        assert job.status == "done"
        state = load_journal("job-test-hit")
        assert state.finished
        record = next(iter(state.completed.values()))
        assert record["cache_hit"] is True
        assert record["attempts"] == 0


class TestRunOptions:
    def test_frozen_with_replace(self):
        options = RunOptions(workers=4)
        with pytest.raises(Exception):
            options.workers = 8
        derived = options.replace(max_retries=3)
        assert derived.workers == 4 and derived.max_retries == 3
        assert options.max_retries == 1  # original untouched

    @staticmethod
    def _options_from_wire(wire):
        """The options a service job runs with for a client's ``wire``.

        The one cell is in the store already, so admission settles it
        at once and no event loop is needed.
        """
        from repro.service.server import JobService, ServiceConfig

        run_policy("mcf", "lru", scale=SCALE)
        job, rejection = JobService(ServiceConfig()).submit_job(
            "t", ["mcf"], ["lru"], scale=SCALE, options_wire=wire,
        )
        assert rejection is None and job.status == "done"
        return job

    def test_from_wire_ignores_fields_this_version_dropped(self):
        # An older service client may still send knobs that are now
        # module constants (or gone); the options rebuild without them.
        payload = {"workers": 3, "retry_seed": 5, "backoff_max": 9.0,
                   "journal": False, "max_retries": 2}
        job = self._options_from_wire(payload)
        assert job.run.options == RunOptions(max_retries=2)

    def test_from_wire_rejects_a_chaos_that_is_not_an_object(self):
        # Chaos is never a client option: whatever a client sends under
        # that key, malformed or not, is dropped before the job's
        # options are built, and the job runs without fault injection.
        for chaos in ("crash=1", {"bogus": 1}):
            job = self._options_from_wire({"chaos": chaos})
            assert job.run.options.chaos is None
            assert job.run.options == RunOptions()

    def test_kernel_never_in_memo_key(self):
        # An older client may still send a replay kernel; it is dropped,
        # so the request shares the store entry of one that names no
        # kernel: the cell is a store hit, not a re-simulation.
        from repro.service.jobs import SOURCE_STORE
        from repro.sim import runner

        run_policy("mcf", "lru", scale=SCALE)
        before = runner.cache_stats()
        job = self._options_from_wire({"kernel": "generic"})
        after = runner.cache_stats()
        assert [cell.source for cell in job.cells.values()] == [SOURCE_STORE]
        assert after["simulations"] == before["simulations"]
        # Two hits: the helper's repeat run_policy and the job's probe.
        assert after["store_hits"] == before["store_hits"] + 2

    @pytest.mark.parametrize("value", [-1, -5, "x", 1.5, True, None])
    def test_max_retries_must_be_a_count(self, value):
        with pytest.raises(ValueError, match="max_retries"):
            RunOptions(max_retries=value)

    @pytest.mark.parametrize("value", [
        "soon", 0, -1.0, float("nan"), float("inf"), False,
    ])
    def test_deadline_must_be_none_or_positive(self, value):
        with pytest.raises(ValueError, match="deadline"):
            RunOptions(deadline=value)


class TestCommonCli:
    def _parse(self, argv):
        parser = argparse.ArgumentParser(
            parents=[common_cli.execution_parent(), common_cli.grid_parent()]
        )
        return parser.parse_args(argv)

    def test_flags_map_to_run_options(self):
        args = self._parse([
            "--workers", "4", "--no-cache", "--max-retries", "3",
            "--deadline", "10", "--chaos", "crash=0.2,seed=7",
        ])
        options = common_cli.options_from_args(args)
        assert options.workers == 4
        assert options.use_cache is False
        assert options.max_retries == 3
        assert options.deadline == 10.0
        assert options.chaos == ChaosConfig(seed=7, crash_rate=0.2)

    def test_defaults_are_run_options_defaults(self):
        options = common_cli.options_from_args(self._parse([]))
        assert options == RunOptions()

    def test_progress_flag_installs_printer(self):
        options = common_cli.options_from_args(self._parse(["--progress"]))
        assert options.progress is common_cli.progress_printer

    @pytest.mark.parametrize("module,argv", [
        ("repro.sim.__main__", ["--benchmark", "mcf"]),
        ("repro.sim.suite", []),
        ("repro.experiments.__main__", ["figure3"]),
        ("repro.bench.__main__", []),
        ("repro.service.__main__", ["serve"]),
    ], ids=["run", "suite", "experiments", "bench", "serve"])
    def test_every_cli_rejects_the_kernel_flag(self, module, argv, capsys):
        # The replay kernel is chosen only by Simulator(kernel=).
        mod = importlib.import_module(module)
        with pytest.raises(SystemExit) as excinfo:
            mod.main(argv + ["--kernel", "generic"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --kernel generic" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flags", [
        ["--max-retries", "-1"], ["--deadline", "0"], ["--chaos", "bogus"],
    ], ids=["max-retries", "deadline", "chaos"])
    def test_invalid_grid_values_are_usage_errors(self, flags, capsys):
        parser = argparse.ArgumentParser(
            parents=[common_cli.execution_parent(), common_cli.grid_parent()]
        )
        with pytest.raises(SystemExit) as excinfo:
            common_cli.check_grid_args(parser, parser.parse_args(flags))
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("module,parents", [
        pytest.param("repro.sim.__main__", ("execution", "telemetry"),
                     id="repro.sim.__main__"),
        pytest.param("repro.sim.suite", ("execution", "grid", "telemetry"),
                     id="repro.sim.suite"),
        pytest.param("repro.experiments.__main__",
                     ("execution", "grid", "telemetry"),
                     id="repro.experiments.__main__"),
        pytest.param("repro.bench.__main__", (), id="repro.bench.__main__"),
    ])
    def test_every_cli_exposes_the_shared_flags(self, module, parents,
                                                capsys):
        # Only the CLIs that run grids take the grid flags, bench takes
        # no telemetry flag, which would keep its timed runs on the
        # generic loop, and none takes --kernel.
        flags = {
            "execution": ("--no-cache",),
            "grid": ("--workers", "--progress", "--max-retries",
                     "--deadline", "--chaos"),
            "telemetry": ("--metrics-out", "--trace-events"),
        }
        mod = importlib.import_module(module)
        with pytest.raises(SystemExit):
            mod.main(["--help"])
        out = capsys.readouterr().out
        for flag in sum((flags[name] for name in parents), ()):
            assert flag in out, "%s missing %s" % (module, flag)
        for name in set(flags) - set(parents):
            for flag in flags[name]:
                assert flag not in out, "%s takes %s" % (module, flag)
        assert "--kernel" not in out
        assert "--resume" not in out and "--list-runs" not in out

    def test_serial_suite_prints_one_line_per_cell(self, capsys):
        from repro.sim.suite import main as suite_main

        argv = ["--benchmarks", "lucas", "--policies", "lru,sbar",
                "--scale", str(SCALE), "--progress"]
        assert suite_main(argv) == 0
        err = capsys.readouterr().err
        assert "[1/2] lucas/lru " in err and "[2/2] lucas/sbar " in err
        assert err.count("  local  ok") == 2
        # A rerun simulates nothing: both cells come from the store.
        assert suite_main(argv) == 0
        assert capsys.readouterr().err.count("  cache  ok") == 2

    def test_progress_printer_labels_sources(self, capsys):
        from repro.sim.parallel import TaskReport

        task = _task()
        cases = [
            (TaskReport(task=task, ok=True, cache_hit=True), "cache"),
            (TaskReport(task=task, ok=True, worker=42), "worker 42"),
            (TaskReport(task=task, ok=False, error="x"), "FAILED"),
        ]
        for report, expected in cases:
            common_cli.progress_printer(report, 1, 4)
            assert expected in capsys.readouterr().err


class TestGridArgs:
    """Flag values and combinations that cannot work are usage errors."""

    REPO_ROOT = Path(__file__).parent.parent

    @pytest.mark.parametrize("argv", [
        ["suite", "--workers", "-1", "--benchmarks", "lucas"],
        ["experiments", "table2", "--workers", "-2", "--benchmarks",
         "lucas"],
        ["serve", "--workers", "-1", "--port", "0"],
        ["serve", "--workers", "0", "--port", "0"],
    ])
    def test_negative_workers_exit_with_usage(self, argv, tmp_path):
        # Without the check these create no process slot and wait
        # forever for one (the service cannot simulate on its event
        # loop, so it needs one), so a hang fails here instead of
        # blocking.
        try:
            out = subprocess.run(
                [sys.executable, "-m", "repro"] + argv,
                capture_output=True, text=True, cwd=str(self.REPO_ROOT),
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                     "REPRO_CACHE_DIR": str(tmp_path / "store")},
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("repro %s hung" % " ".join(argv))
        assert out.returncode == 2
        assert "usage:" in out.stderr
        least = 1 if argv[0] == "serve" else 0
        assert "workers must be %d or more" % least in out.stderr

    def test_negative_workers_raise_in_the_library(self):
        # run_grid and the job service both size their slots here.
        from repro.service.server import JobService, ServiceConfig

        with pytest.raises(ValueError, match="workers must be 0 or more"):
            CellScheduler(-3, loop=None)
        with pytest.raises(ValueError, match="workers must be 1 or more"):
            JobService(ServiceConfig(workers=-1))
        with pytest.raises(ValueError, match="workers must be 1 or more"):
            ServiceConfig(workers=0)

    @pytest.mark.parametrize("module", ["repro.sim.suite",
                                        "repro.experiments.__main__"])
    def test_no_cache_with_resume_is_a_usage_error(self, module, capsys):
        # There is no --resume: re-running the same command is resuming
        # it, so the flag is refused with or without the store.
        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "--resume", "run-x", "--benchmarks",
                  "lucas", "--scale", str(SCALE)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --resume" in (
            capsys.readouterr().err
        )

    def test_experiments_no_cache_with_workers_runs_on_the_pool(
        self, capsys, monkeypatch
    ):
        from repro.experiments.__main__ import main

        # --no-cache sets REPRO_NO_STORE: record it unset (an empty
        # value reads as unset), so monkeypatch removes it afterwards.
        monkeypatch.setenv("REPRO_NO_STORE", "")
        assert main(["table1", "--no-cache", "--workers", "2",
                     "--benchmarks", "lucas", "--scale", str(SCALE)]) == 0
        captured = capsys.readouterr()
        assert "lucas" in captured.out
        assert "[grid: 1 tasks, 2 workers," in captured.err

    def test_suite_no_cache_with_workers_runs_on_the_pool(self, capsys):
        from repro.sim.suite import main

        assert main(["--no-cache", "--workers", "2", "--benchmarks",
                     "lucas", "--policies", "lru", "--scale",
                     str(SCALE)]) == 0
        assert "[2 workers:" in capsys.readouterr().err
