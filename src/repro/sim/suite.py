"""Suite runner: benchmark x policy matrices with machine-readable output.

Downstream users typically want the whole comparison grid, not single
runs.  :func:`run_suite` executes a (benchmarks x policies) matrix —
serially through the two-level result cache, or fanned out across
process slots with ``RunOptions(workers=N)`` — and returns a
:class:`SuiteResult` that renders as text, JSON, or CSV, so results
can feed external plotting without re-simulation.

The parallel path is failure-tolerant: a task that keeps crashing or
times out becomes an entry in ``SuiteResult.failures`` and a hole in
the matrix rather than an exception, and ``SuiteResult.meta`` carries
the engine's observability report (per-task wall time, worker
utilization, cache hit/miss counters).

CLI::

    python -m repro.sim.suite --policies "lru,lin(4),sbar" --workers 8
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.cache.replacement.registry import split_specs
from repro.sim.options import RunOptions
from repro.sim.runner import (
    GridReport,
    Task,
    TaskReport,
    cache_stats,
    ipc_improvement,
    run_task,
    trace_scale,
)
from repro.sim.stats import SimResult
from repro.workloads import BENCHMARKS

DEFAULT_POLICIES = ("lru", "lin(4)", "sbar")

#: Scalar fields exported per run.  The last four are the oracle
#: bounds/regret columns: None unless the suite ran with ``--oracle``.
EXPORT_FIELDS = (
    "ipc",
    "instructions",
    "cycles",
    "demand_misses",
    "mpki",
    "compulsory_misses",
    "long_stalls",
    "stall_cycles",
    "avg_mlp_cost",
    "writebacks",
    "oracle_misses",
    "oracle_stall_cycles",
    "miss_regret",
    "stall_regret",
)

#: Column order of :meth:`SuiteResult.to_rows` (and the CSV header).
ROW_FIELDS = (
    ("benchmark", "policy", "ipc_improvement_pct")
    + EXPORT_FIELDS
    + ("cost_histogram_pct",)
)


@dataclass
class SuiteResult:
    """Results of one suite run, indexed [benchmark][policy].

    ``failures`` maps benchmark -> policy -> error message for matrix
    cells the parallel engine could not complete; those cells are
    simply absent from ``results``.  ``meta`` is the engine's
    observability report (present when the suite ran with workers).
    """

    policies: List[str]
    benchmarks: List[str]
    results: Dict[str, Dict[str, SimResult]]
    scale: Optional[float]
    failures: Dict[str, Dict[str, str]] = field(default_factory=dict)
    meta: Optional[Dict[str, object]] = None
    #: benchmark -> serialized :class:`repro.analysis.oracle.OracleReport`
    #: when the suite ran with oracle bounds; None otherwise.
    oracle: Optional[Dict[str, Dict[str, object]]] = None

    def result(self, benchmark: str, policy: str) -> SimResult:
        return self.results[benchmark][policy]

    def improvement(self, benchmark: str, policy: str) -> Optional[float]:
        """IPC improvement over the first policy in the matrix.

        None when either this cell or the baseline cell failed.
        """
        cells = self.results.get(benchmark, {})
        baseline = cells.get(self.policies[0])
        result = cells.get(policy)
        if baseline is None or result is None:
            return None
        return ipc_improvement(result, baseline)

    def merged_metrics(self) -> Optional[Dict[str, object]]:
        """Merge of every cell's telemetry snapshot, or None.

        Deterministic: counters sum, gauges fold, histograms add, so
        the same matrix merges bit-identically whether it ran serially
        or across a pool (``tests/test_obs_integration.py`` locks this
        in).  Cells simulated with metrics off contribute nothing.
        """
        snapshots = [
            result.metrics
            for benchmark in self.benchmarks
            for result in (
                self.results.get(benchmark, {}).get(policy)
                for policy in self.policies
            )
            if result is not None and result.metrics is not None
        ]
        if not snapshots:
            return None
        return obs.merge_snapshots(snapshots)

    def content_digest(self) -> str:
        """Hash of the suite's *deterministic* content.

        Covers the scale, every completed cell's exported fields, the
        failure map, and the merged telemetry snapshot — and nothing
        host- or schedule-dependent (``meta`` carries wall times and
        worker pids, so it is excluded).  Two runs of the same matrix
        must digest identically whether they ran serially, across a
        pool, under chaos injection, or resumed from a journal; the
        chaos differential (``python -m repro.sim.chaos``) asserts
        exactly that.
        """
        payload = {
            "scale": self.scale,
            "runs": self.to_rows(),
            "failures": self.failures,
            "metrics": self.merged_metrics(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    # -- renderings -----------------------------------------------------

    def to_rows(self) -> List[Dict[str, object]]:
        """Flat list of dicts, one per completed (benchmark, policy) run."""
        rows: List[Dict[str, object]] = []
        for benchmark in self.benchmarks:
            for policy in self.policies:
                result = self.results.get(benchmark, {}).get(policy)
                if result is None:
                    continue
                improvement = self.improvement(benchmark, policy)
                row: Dict[str, object] = {
                    "benchmark": benchmark,
                    "policy": policy,
                    "ipc_improvement_pct": (
                        None if improvement is None else round(improvement, 3)
                    ),
                }
                for field_name in EXPORT_FIELDS:
                    row[field_name] = getattr(result, field_name)
                row["cost_histogram_pct"] = [
                    round(p, 3)
                    for p in result.cost_distribution.percentages
                ]
                rows.append(row)
        return rows

    def to_json(self) -> str:
        payload: Dict[str, object] = {
            "scale": self.scale,
            "runs": self.to_rows(),
        }
        if self.failures:
            payload["failures"] = self.failures
        if self.oracle is not None:
            payload["oracle"] = self.oracle
        if self.meta is not None:
            payload["meta"] = self.meta
        metrics = self.merged_metrics()
        if metrics is not None:
            payload["metrics"] = metrics
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(ROW_FIELDS))
        writer.writeheader()
        for row in self.to_rows():
            flat = dict(row)
            flat["cost_histogram_pct"] = "|".join(
                str(v) for v in flat["cost_histogram_pct"]
            )
            writer.writerow(flat)
        return buffer.getvalue()

    def to_text(self) -> str:
        lines = ["%-10s" % "benchmark" + "".join(
            "%14s" % policy for policy in self.policies
        )]
        for benchmark in self.benchmarks:
            cells = []
            for policy in self.policies:
                result = self.results.get(benchmark, {}).get(policy)
                if result is None:
                    cells.append("%14s" % "FAILED")
                elif policy == self.policies[0]:
                    cells.append("%14s" % ("IPC %.4f" % result.ipc))
                else:
                    improvement = self.improvement(benchmark, policy)
                    cells.append("%14s" % (
                        "-" if improvement is None
                        else "%+.1f%%" % improvement
                    ))
            lines.append("%-10s" % benchmark + "".join(cells))
        return "\n".join(lines)


def _oracle_reports(
    benchmarks: Sequence[str],
    scale: float,
    use_store: bool,
):
    """Oracle reports per benchmark, at the scale the cells ran with."""
    from repro.analysis.oracle import oracle_report
    from repro.sim.runner import packed_trace

    return {
        benchmark: oracle_report(
            packed_trace(benchmark, scale=scale), use_store=use_store
        )
        for benchmark in benchmarks
    }


def run_suite(
    policies: Sequence[str] = DEFAULT_POLICIES,
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    options: Optional[RunOptions] = None,
    oracle: bool = False,
) -> SuiteResult:
    """Run the matrix; the first policy is the baseline column.

    ``benchmarks`` entries are workload registry specs — surrogate
    names, imported traces (``"champsim:/path.xz"``), or compositions
    (``"interleave(mcf,art)"``); rows and cells keep the spelling they
    were given.  Execution knobs travel in ``options``
    (:class:`~repro.sim.options.RunOptions`).

    ``RunOptions(workers=0)`` (the default) runs serially in-process
    and raises on the first simulation error.
    ``workers >= 1`` — or any of ``resume`` / ``chaos``, which need the
    fault-tolerant engine — routes the grid through
    :func:`repro.sim.parallel.run_grid`: failures become
    ``SuiteResult.failures`` entries (with full remote tracebacks), the
    run is journaled for ``--resume``, and the observability +
    resilience report lands in ``SuiteResult.meta``.  Both paths
    produce bit-identical ``SimResult`` values, so
    :meth:`SuiteResult.content_digest` matches across them.

    ``oracle=True`` additionally computes the offline OPT and
    cost-weighted-OPT bounds per benchmark
    (:func:`repro.analysis.oracle.oracle_report`, cached in the result
    store) and annotates every completed cell with
    ``oracle_misses`` / ``oracle_stall_cycles`` / ``miss_regret`` /
    ``stall_regret``.  The annotation pass is serial and deterministic,
    so serial and parallel oracle suites stay bit-identical.
    """
    if options is None:
        options = RunOptions()
    if not policies:
        raise ValueError("need at least one policy")
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARKS)

    resolved_scale = scale if scale is not None else trace_scale()
    tasks = [
        Task(benchmark=benchmark, policy_spec=policy, scale=resolved_scale)
        for benchmark in names
        for policy in policies
    ]
    needs_engine = (
        options.workers
        or options.resume is not None
        or options.chaos is not None
    )
    if needs_engine:
        from repro.sim.parallel import run_grid

        if not options.workers:
            # resume/chaos need the journaling engine even "serially":
            # one process slot with the full retry/journal protocol.
            options = options.replace(workers=1)
        grid = run_grid(tasks, options=options)
        meta = grid.meta()
    else:
        grid = _run_serial(tasks, options)
        meta = None
    if oracle:
        grid.annotate_oracle(
            _oracle_reports(names, resolved_scale, options.use_cache)
        )
    results: Dict[str, Dict[str, SimResult]] = {
        benchmark: {} for benchmark in names
    }
    failures: Dict[str, Dict[str, str]] = {}
    for task, result in grid.results.items():
        results[task.benchmark][task.policy_spec] = result
    for task, message in grid.failures.items():
        failures.setdefault(task.benchmark, {})[task.policy_spec] = message
    return SuiteResult(
        policies=list(policies),
        benchmarks=names,
        results=results,
        scale=scale,
        failures=failures,
        meta=meta,
        oracle=grid.oracle,
    )


def _run_serial(tasks: Sequence[Task], options: RunOptions) -> GridReport:
    """Run ``tasks`` one after another in this process.

    Raises on the first simulation error.  Each finished task goes to
    ``options.progress`` like a grid task does; one that needed no
    simulation reports as a cache hit.
    """
    started = time.perf_counter()
    results: Dict[Task, SimResult] = {}
    reports: List[TaskReport] = []
    for task in tasks:
        simulations = cache_stats()["simulations"]
        start = time.perf_counter()
        results[task] = run_task(task, options)
        reports.append(TaskReport(
            task=task, ok=True,
            cache_hit=cache_stats()["simulations"] == simulations,
            wall_time=time.perf_counter() - start,
        ))
        if options.progress is not None:
            options.progress(reports[-1], len(reports), len(tasks))
    return GridReport(
        results=results, reports=reports, workers=1,
        elapsed=time.perf_counter() - started,
    )


def _print_runs() -> int:
    """``--list-runs``: one line per journaled run in the cache dir."""
    from repro.sim.resilience import journal_root, list_runs

    states = list_runs()
    if not states:
        print("no journaled runs under %s" % (journal_root() or "<disabled>"))
        return 0
    for state in states:
        if state.interrupted:
            status = "interrupted"
        elif state.finished:
            status = "finished"
        else:
            status = "incomplete"
        print(
            "%-28s %-12s %3d completed  %2d failed  (%s x %s)"
            % (
                state.run_id,
                status,
                len(state.completed),
                len(state.failed),
                ",".join(state.meta.get("benchmarks", []) or ["?"]),
                ",".join(state.meta.get("policies", []) or ["?"]),
            )
        )
    return 0


def main(argv=None) -> int:
    from repro.sim import common_cli

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.suite",
        description="Run a benchmark x policy matrix.",
        parents=[common_cli.execution_parent(), common_cli.grid_parent(),
                 common_cli.telemetry_parent()],
    )
    parser.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES),
        help="comma-separated policy specs (first = baseline); commas "
             'inside parens are safe: "lru,sbar(simple-static,16)"',
    )
    parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated workload specs (default: the 14 "
             'surrogates); composed/imported specs work: '
             '"mcf,interleave(mcf,art),champsim:/path.xz"',
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument(
        "--oracle", action="store_true",
        help="compute offline OPT / cost-weighted-OPT bounds per "
             "benchmark and add oracle_misses / oracle_stall_cycles / "
             "miss_regret / stall_regret to every cell (see "
             "docs/policies.md)",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    parser.add_argument("--csv", metavar="FILE", default=None)
    parser.add_argument(
        "--list-runs", action="store_true",
        help="list journaled runs (for --resume) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_runs:
        return _print_runs()

    common_cli.check_grid_args(parser, args)
    common_cli.apply_telemetry(args)
    options = common_cli.options_from_args(args)

    started = time.perf_counter()
    suite = run_suite(
        policies=split_specs(args.policies),
        benchmarks=split_specs(args.benchmarks) if args.benchmarks else None,
        scale=args.scale,
        options=options,
        oracle=args.oracle,
    )
    print(suite.to_text())
    if suite.meta is not None:
        cache = suite.meta["cache"]
        print(
            "[%d workers: %.1fs, %.0f%% utilization, cache %d hit / %d "
            "miss, %d failed]"
            % (
                suite.meta["workers"],
                suite.meta["elapsed_s"],
                100.0 * suite.meta["worker_utilization"],
                cache["hits"],
                cache["misses"],
                suite.meta["failed_tasks"],
            ),
            file=sys.stderr,
        )
        resilience = suite.meta.get("resilience") or {}
        if resilience.get("retries") or resilience.get("worker_rebuilds"):
            print(
                "[resilience: %d retries, %d worker rebuilds, %d worker "
                "trips, %d store entries quarantined]"
                % (
                    resilience.get("retries", 0),
                    resilience.get("worker_rebuilds", 0),
                    resilience.get("worker_trips", 0),
                    resilience.get("store_quarantined", 0),
                ),
                file=sys.stderr,
            )
    else:
        print(
            "[serial: %.1fs]" % (time.perf_counter() - started),
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(suite.to_json())
        print("wrote %s" % args.json)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(suite.to_csv())
        print("wrote %s" % args.csv)
    if args.metrics_out:
        common_cli.write_metrics(args, suite.merged_metrics())
    if suite.meta is not None and suite.meta.get("interrupted"):
        print(
            "interrupted — resume with: python -m repro.sim.suite "
            "--resume %s" % suite.meta.get("run_id"),
            file=sys.stderr,
        )
        return 130
    return 1 if suite.failures else 0


if __name__ == "__main__":
    sys.exit(main())
