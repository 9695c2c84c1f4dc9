"""Tests for the experiment harness: every report builds and renders.

Data-driven experiments run on a drastically reduced benchmark subset
and trace scale so the whole file stays fast; the full regeneration
targets live in benchmarks/.
"""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.common import (
    Report,
    fmt_pct,
    histogram_bar,
    paper_entry,
    resolve_benchmarks,
)
from repro.sim.runner import clear_cache, run_task
from repro.sim.simulator import Simulator

TINY = dict(scale=0.05, benchmarks=["mcf", "parser"])


def _no_simulation(self, trace):
    raise AssertionError("rendering must not simulate")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCommon:
    def test_report_renders_tables(self):
        report = Report("x", "Title")
        report.add_table(["a", "bb"], [(1, 2.5), ("row", None)])
        text = report.render()
        assert "Title" in text
        assert "2.5" in text
        assert "-" in text  # None cell

    def test_fmt_pct(self):
        assert fmt_pct(19.0) == "+19%"
        assert fmt_pct(-3.3) == "-3.3%"
        assert fmt_pct(0.0) == "0.0%"
        assert fmt_pct(3.3, signed=False) == "3.3%"

    def test_histogram_bar_monotone(self):
        assert len(histogram_bar(50)) > len(histogram_bar(10))
        assert histogram_bar(0) == ""

    def test_resolve_benchmarks_default(self):
        assert len(resolve_benchmarks(None)) == 14

    def test_resolve_benchmarks_validates(self):
        with pytest.raises(KeyError):
            resolve_benchmarks(["nonsense"])

    def test_paper_entry_by_surrogate_base_name(self):
        table = {"mcf": (1, 2)}
        assert paper_entry(table, "mcf") == (1, 2)
        assert paper_entry(table, " MCF(seed=3) ") == (1, 2)
        assert paper_entry(table, "interleave(mcf,art)") is None
        assert paper_entry(table, "art") is None


class TestSeededAndComposedSpecs:
    """Paper lookups used to index by the raw spec string, so
    ``figure4 --benchmarks "mcf(seed=3)"`` died with a KeyError."""

    @pytest.mark.parametrize(
        "name", ["table1", "table3", "figure4", "figure5", "figure9"]
    )
    def test_report_renders(self, name):
        report = EXPERIMENTS[name].run(
            scale=0.02, benchmarks=["mcf(seed=3)", "interleave(mcf,art)"]
        )
        text = report.render()
        assert "mcf(seed=3)" in text
        assert "interleave(mcf,art)" in text


class TestRegistry:
    def test_paper_coverage(self):
        # Every table and figure of the evaluation has an experiment.
        for name in (
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "figure8", "figure9", "figure10", "figure11",
            "table1", "table2", "table3", "cbs", "overhead",
        ):
            assert name in EXPERIMENTS

    def test_all_modules_expose_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)


class TestCellLists:
    """Each experiment declares every cell it reads, so rendering
    simulates nothing.  figure1's toy list-trace runs are the one
    exemption."""

    SCALE = 0.02
    BENCHMARKS = ["mcf", "parser"]

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_render_reads_only_declared_cells(self, name, monkeypatch):
        module = EXPERIMENTS[name]
        cells = module.cells(self.SCALE, self.BENCHMARKS)
        results = {task: run_task(task) for task in cells}
        # The store may not stand in for a declared cell, and no cell
        # may run.
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        if name != "figure1":
            monkeypatch.setattr(Simulator, "run", _no_simulation)
        if cells:
            partial = dict(results)
            del partial[cells[-1]]
            with pytest.raises(KeyError):
                module.render(partial, self.SCALE, self.BENCHMARKS)
        text = module.render(results, self.SCALE, self.BENCHMARKS).render()
        assert text.startswith("=")

    def test_sensitivity_runs_each_cell_once(self, monkeypatch):
        from repro.experiments import sensitivity

        monkeypatch.setenv("REPRO_NO_STORE", "1")
        calls = []
        original = Simulator.run

        def counting(self, trace):
            calls.append(self)
            return original(self, trace)

        monkeypatch.setattr(Simulator, "run", counting)
        sensitivity.run(scale=self.SCALE)
        # 4 L2 sizes and 5 MSHR sizes, LRU and LIN(4) each: LRU used to
        # run twice per MSHR size.
        assert len(calls) == 18
        assert len(set(sensitivity.cells(self.SCALE, None))) == 18

    def test_grid_builds_each_trace_once(self, monkeypatch, capsys):
        """The CLI hands the grid its cells grouped by trace.

        In experiment order the cells cycle through every benchmark,
        so a trace memo smaller than the benchmark count rebuilt traces
        all through the grid; grouped, each is built once.
        """
        from repro.experiments.__main__ import main
        from repro.sim import parallel, runner
        from repro.workloads import canonical_workload_spec

        monkeypatch.setenv("REPRO_NO_STORE", "1")
        monkeypatch.setattr(runner, "TRACE_CACHE_MAX", 2)
        seen = {}
        run_grid = parallel.run_grid

        def counting(tasks, options=None):
            seen["traces"] = {
                (canonical_workload_spec(task.benchmark), task.scale)
                for task in tasks
            }
            before = runner._COUNTERS["trace_builds"]
            grid = run_grid(tasks, options)
            seen["builds"] = runner._COUNTERS["trace_builds"] - before
            return grid

        monkeypatch.setattr(parallel, "run_grid", counting)
        assert main(["--benchmarks", "mcf,art,twolf",
                     "--scale", str(self.SCALE)]) == 0
        capsys.readouterr()
        assert len(seen["traces"]) > runner.TRACE_CACHE_MAX
        assert seen["builds"] == len(seen["traces"])


class TestCheapExperiments:
    def test_figure3(self):
        text = EXPERIMENTS["figure3"].run().render()
        assert "420+ cycles" in text

    def test_figure8(self):
        text = EXPERIMENTS["figure8"].run().render()
        assert "p=0.9" in text

    def test_table2(self):
        text = EXPERIMENTS["table2"].run().render()
        assert "1024KB" in text or "1024 KB" in text.replace("KB", " KB")

    def test_overhead(self):
        text = EXPERIMENTS["overhead"].run().render()
        assert "1854" in text


class TestDataDrivenExperiments:
    def test_figure2(self):
        text = EXPERIMENTS["figure2"].run(**TINY).render()
        assert "mcf" in text and "420+" in text

    def test_table1(self):
        text = EXPERIMENTS["table1"].run(**TINY).render()
        assert "parser" in text

    def test_table3(self):
        text = EXPERIMENTS["table3"].run(**TINY).render()
        assert "compulsory" in text

    def test_figure4(self):
        text = EXPERIMENTS["figure4"].run(**TINY).render()
        assert "LIN(4)" in text

    def test_figure5(self):
        text = EXPERIMENTS["figure5"].run(**TINY).render()
        assert "dMISS" in text

    def test_figure9(self):
        text = EXPERIMENTS["figure9"].run(**TINY).render()
        assert "SBAR" in text

    def test_figure10(self):
        text = EXPERIMENTS["figure10"].run(
            scale=0.05, benchmarks=["mcf"]
        ).render()
        assert "static/8" in text

    def test_figure11(self):
        text = EXPERIMENTS["figure11"].run(scale=0.2).render()
        assert "IPC" in text and "lin(4)" in text

    def test_cbs(self):
        text = EXPERIMENTS["cbs"].run(
            scale=0.05, benchmarks=["mcf"]
        ).render()
        assert "cbs-global" in text


class TestFigure1Exact:
    def test_paper_numbers_reproduced_exactly(self):
        from repro.experiments.figure1 import PAPER, simulate_policy

        for policy, (paper_misses, paper_stalls) in PAPER.items():
            misses, stalls = simulate_policy(policy)
            assert misses == pytest.approx(paper_misses, abs=0.05), policy
            assert stalls == pytest.approx(paper_stalls, abs=0.05), policy
