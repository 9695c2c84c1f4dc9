"""Resilience-layer unit tests: backoff, RunOptions, CLI flag checks.

The end-to-end fault-injection properties (digest equality under
chaos, re-running an interrupted grid, slot rebuild) live in
``tests/test_chaos.py``; this file locks in the primitives those
tests compose — all deterministic, none needing a worker pool.
"""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import common_cli
from repro.sim.chaos import ChaosConfig
from repro.sim.options import RunOptions
from repro.sim.parallel import CellScheduler, Task, backoff_delay, run_grid
from repro.sim.runner import clear_cache, run_policy, trace_scale

SCALE = 0.05


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """Every test gets its own empty store."""
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


class TestGridJournalIntegration:
    def test_run_grid_writes_no_journal(self, tmp_path):
        for workers in (0, 1):
            grid = run_grid([_task()], options=RunOptions(workers=workers))
            assert not grid.failures
            assert "run_id" not in grid.meta()
        assert not (tmp_path / "store" / "runs").exists()


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
        self, capsys
    ):
        from repro.experiments.__main__ import main

        assert main(["table1", "--no-cache", "--workers", "2",
                     "--benchmarks", "lucas", "--scale", str(SCALE)]) == 0
        captured = capsys.readouterr()
        assert "lucas" in captured.out
        assert "[grid: 1 tasks, 2 workers," in captured.err

    def test_experiments_no_cache_leaves_the_environment_alone(
        self, capsys, monkeypatch
    ):
        # --no-cache turns the store off for the run and its renders
        # only: a later call in the same process uses the store again.
        from repro.experiments.__main__ import main

        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        before = dict(os.environ)
        assert main(["table2", "--no-cache", "--benchmarks", "lucas",
                     "--scale", str(SCALE)]) == 0
        assert dict(os.environ) == before

    def test_suite_no_cache_with_workers_runs_on_the_pool(self, capsys):
        from repro.sim.suite import main

        assert main(["--no-cache", "--workers", "2", "--benchmarks",
                     "lucas", "--policies", "lru", "--scale",
                     str(SCALE)]) == 0
        assert "[2 workers:" in capsys.readouterr().err


BAD_SCALES = ["-1", "0", "nan", "inf", "abc"]


class TestScaleArgs:
    """A scale that is not a positive, finite number is refused before
    any cell runs: a usage error on every CLI, a ``ValueError`` from
    ``trace_scale()``, and a ``ProtocolError`` on the service's wire
    (``tests/test_service.py``)."""

    @pytest.mark.parametrize("value", BAD_SCALES)
    @pytest.mark.parametrize("module,argv", [
        pytest.param("repro.__main__", [cmd] + rest, id=cmd)
        for cmd, rest in (
            ("run", ["--benchmark", "lucas"]),
            ("suite", ["--benchmarks", "lucas", "--policies", "lru"]),
            ("experiments", ["table2", "--benchmarks", "lucas"]),
            ("bench", []),
            ("workloads", ["--digest", "lucas"]),
            ("chaos", []),
            ("submit", ["--benchmarks", "lucas", "--policies", "lru",
                        "--port", "1"]),
        )
    ] + [pytest.param("repro.service.__main__", ["demo"], id="demo")])
    def test_every_scale_flag_refuses_it(self, module, argv, value, capsys):
        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--scale=" + value])
        assert excinfo.value.code == 2
        assert "scale must be a positive, finite number" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("value", BAD_SCALES)
    def test_repro_scale_refuses_it(self, value, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_SCALE", value)
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            trace_scale()
        for argv in (["suite", "--benchmarks", "lucas", "--policies", "lru"],
                     ["experiments", "table2", "--benchmarks", "lucas"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "REPRO_SCALE" in capsys.readouterr().err

    def test_repro_scale_is_checked_before_serving(self, tmp_path):
        # A submit that names no scale runs at the daemon's REPRO_SCALE,
        # so the daemon refuses a bad one before it listens.
        try:
            out = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                capture_output=True, text=True,
                cwd=str(Path(__file__).parent.parent),
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                     "REPRO_CACHE_DIR": str(tmp_path / "store"),
                     "REPRO_SCALE": "nan"},
                timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("repro serve started with REPRO_SCALE=nan")
        assert out.returncode == 2
        assert "REPRO_SCALE" in out.stderr
