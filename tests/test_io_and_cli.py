"""Tests for trace persistence, the CLIs, and the stats helpers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.sim.__main__ import main as sim_main
from repro.sim.simulator import Simulator
from repro.sim.stats import CostDistribution, PhaseSample
from repro.trace.record import LOAD, STORE, Access
from repro.trace.packed import pack_trace
from repro.trace.trace_io import FORMAT_VERSION, open_trace, save_trace
from repro.workloads import build_workload


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = [
            Access(0x1000, LOAD, 5),
            Access(0x2040, STORE, 0),
            Access(0x3000, LOAD, 200, wrong_path=True),
        ]
        path = str(tmp_path / "trace.npz")
        save_trace(path, trace)
        assert open_trace(path).to_accesses() == trace

    def test_roundtrip_surrogate(self, tmp_path):
        trace = build_workload("art", 0.02)
        path = str(tmp_path / "art.npz")
        save_trace(path, trace)
        assert open_trace(path) == trace

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        save_trace(path, [])
        assert len(open_trace(path)) == 0

    def test_roundtrip_gap_past_int32(self, tmp_path):
        # Gaps are int64 (TraceBuilder.quiet can inflate them without
        # bound); the file used to narrow them to int32 and overflow.
        trace = pack_trace([Access(64, LOAD, 2**31 + 5), Access(128)])
        path = str(tmp_path / "long-gap.npz")
        save_trace(path, trace)
        loaded = open_trace(path)
        assert loaded == trace
        assert loaded.total_instructions() == 2**31 + 7

    def test_int32_gap_file_still_loads(self, tmp_path):
        # Files written before the gap column widened to int64.
        import numpy as np

        path = str(tmp_path / "int32-gaps.npz")
        np.savez(
            path,
            version=np.int32(FORMAT_VERSION),
            address=np.array([0x1000, 0x2040], dtype=np.int64),
            kind=np.array([LOAD, STORE], dtype=np.int8),
            gap=np.array([5, 2**31 - 1], dtype=np.int32),
            wrong_path=np.array([False, True]),
        )
        assert open_trace(path).to_accesses() == [
            Access(0x1000, LOAD, 5),
            Access(0x2040, STORE, 2**31 - 1, wrong_path=True),
        ]

    def test_version_check(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "bad.npz")
        np.savez(
            path,
            version=np.int32(FORMAT_VERSION + 1),
            address=np.array([], dtype=np.int64),
            kind=np.array([], dtype=np.int8),
            gap=np.array([], dtype=np.int32),
            wrong_path=np.array([], dtype=bool),
        )
        with pytest.raises(ValueError):
            open_trace(path)


class TestSimCLI:
    def test_benchmark_run(self, capsys):
        assert sim_main(
            ["--benchmark", "lucas", "--policy", "lin(4)", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "lin(4)" in out
        assert "delta:" in out

    def test_trace_file_run(self, tmp_path, capsys):
        path = str(tmp_path / "t.npz")
        save_trace(path, build_workload("lucas", 0.02).to_accesses())
        assert sim_main(["--trace", path, "--policy", "lru"]) == 0
        assert "lru" in capsys.readouterr().out

    def test_phase_interval(self, capsys):
        assert sim_main(
            ["--benchmark", "lucas", "--policy", "sbar",
             "--scale", "0.05", "--phase-interval", "100000"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-interval IPC" in out
        assert "final PSEL" in out

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            sim_main(["--policy", "lru"])

    @pytest.mark.parametrize("kernel", ["generic", "auto"])
    def test_trace_file_run_takes_the_kernel(self, tmp_path, monkeypatch,
                                             kernel):
        # A trace-file run replays like any Simulator: on the native
        # kernel when it is built, else (forced here for "generic") on
        # the generic loop.
        from repro.sim import native
        from repro.sim.simulator import Simulator

        path = str(tmp_path / "t.npz")
        save_trace(path, build_workload("lucas", 0.02).to_accesses())
        results = []
        run = Simulator.run
        monkeypatch.setattr(
            Simulator, "run",
            lambda self, trace: results.append(run(self, trace))
            or results[-1],
        )
        if kernel == "generic":
            monkeypatch.setattr(native, "load_extension", lambda: None)
        assert sim_main(["--trace", path, "--policy", "lru"]) == 0
        expected = "native" if native.load_extension() else "generic"
        assert results[0].meta["kernel_used"] == expected

    def test_grid_flags_are_rejected(self, capsys):
        # A single simulation has no grid to fan out, retry, resume or
        # inject faults into.
        with pytest.raises(SystemExit) as excinfo:
            sim_main(["--benchmark", "lucas", "--policy", "lru",
                      "--scale", "0.05", "--workers", "3",
                      "--chaos", "crash=1,seed=1", "--resume", "nosuchrun",
                      "--deadline", "0.001"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExperimentsCLI:
    def test_single_experiment(self, capsys):
        assert experiments_main(["figure3"]) == 0
        assert "cost_q" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["figure99"])

    @pytest.mark.parametrize("argv", [
        ["figure4"], ["figure4", "--workers", "2"], ["sensitivity"],
    ])
    def test_unknown_benchmark_is_a_usage_error(
        self, argv, capsys, monkeypatch
    ):
        # Cells are collected before any runs, so a bad spec exits 2
        # with no cell run (it used to die in the render pass).
        def no_simulation(self, trace):
            raise AssertionError("no cell may run")

        monkeypatch.setattr(Simulator, "run", no_simulation)
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(
                argv + ["--benchmarks", "mcf,nosuch", "--scale", "0.02"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmarks: nosuch" in err
        assert "[grid:" not in err

    def test_serial_run_builds_every_cell_in_process(
        self, monkeypatch, tmp_path
    ):
        from repro.sim.runner import Task, clear_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        built = []
        original = Task.simulator

        def recording(self):
            built.append(self.label)
            return original(self)

        monkeypatch.setattr(Task, "simulator", recording)
        assert experiments_main([
            "figure9", "--benchmarks", "mcf", "--scale", "0.01",
        ]) == 0
        assert len(set(built)) == len(built) == 3
        clear_cache()

    def test_metrics_match_in_process_and_on_slots(self, tmp_path):
        # --metrics-out merges the snapshots on the grid's results, so
        # a cold run here, a warm one and a warm one on slots, all on
        # one store, write the same metrics.
        metrics = {}
        for run, workers in (("cold", "0"), ("warm", "0"), ("slots", "2")):
            out = tmp_path / ("metrics-%s.json" % run)
            subprocess.run(
                [sys.executable, "-m", "repro", "experiments", "figure1",
                 "figure9", "--benchmarks", "mcf", "--scale", "0.02",
                 "--workers", workers, "--metrics-out", str(out)],
                check=True, capture_output=True, timeout=300,
                cwd=str(Path(__file__).parent.parent),
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                     "REPRO_CACHE_DIR": str(tmp_path / "store")},
            )
            payload = json.loads(out.read_text())
            assert list(payload) == ["metrics"]
            metrics[run] = payload["metrics"]
        assert metrics["cold"]["counters"]["sim.runs"][""] > 0
        assert metrics["warm"] == metrics["cold"]
        assert metrics["slots"] == metrics["cold"]

    def test_benchmark_filter(self, capsys):
        assert experiments_main(
            ["table1", "--scale", "0.05", "--benchmarks", "lucas"]
        ) == 0
        out = capsys.readouterr().out
        assert "lucas" in out
        assert "mcf" not in out


class TestStatsHelpers:
    def test_cost_distribution_percentages(self):
        distribution = CostDistribution()
        for cost in (10, 450, 450, 450):
            distribution.record(cost)
        assert distribution.percentages[0] == 25.0
        assert distribution.pct_isolated == 75.0
        assert distribution.average == pytest.approx((10 + 3 * 450) / 4)

    def test_cost_distribution_empty(self):
        distribution = CostDistribution()
        assert distribution.percentages == [0.0] * 8
        assert distribution.pct_isolated == 0.0
        assert distribution.average == 0.0

    def test_phase_sample_metrics(self):
        sample = PhaseSample(
            start_instruction=1000, end_instruction=3000,
            start_cycle=100.0, end_cycle=1100.0,
            misses=10, cost_q_sum=35, cost_count=10,
        )
        assert sample.instructions == 2000
        assert sample.ipc == pytest.approx(2.0)
        assert sample.misses_per_1000 == pytest.approx(5.0)
        assert sample.avg_cost_q == pytest.approx(3.5)

    def test_phase_sample_degenerate(self):
        sample = PhaseSample(start_instruction=0)
        assert sample.ipc == 0.0
        assert sample.misses_per_1000 == 0.0
        assert sample.avg_cost_q == 0.0


class TestLazyNumpy:
    """numpy costs ~0.2 s and ~13 MB per process; only the npz trace
    format and the batched replay rung need it, so the native suite
    path, the service and the pool must never import it."""

    def _child(self, script, tmp_path):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).parent.parent),
            env={
                "PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                "REPRO_CACHE_DIR": str(tmp_path / "store"),
            },
        )
        return out.stdout.split()

    def test_imports_leave_numpy_unloaded(self, tmp_path):
        script = (
            "import sys\n"
            "import repro.__main__, repro.service.server, repro.sim.parallel\n"
            "print('numpy' in sys.modules)\n"
        )
        assert self._child(script, tmp_path) == ["False"]

    def test_native_suite_leaves_numpy_unloaded(self, tmp_path):
        from repro.sim.native import load_extension

        if load_extension() is None:
            pytest.skip("native extension not built; batched needs numpy")
        script = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "code = main(['suite', '--policies', 'lru,lin(4),sbar',\n"
            "             '--benchmarks', 'mcf,ammp', '--scale', '0.02'])\n"
            "print('exit=%d' % code, 'numpy' in sys.modules)\n"
        )
        assert self._child(script, tmp_path)[-2:] == ["exit=0", "False"]
