"""Suite runner: benchmark x policy matrices with machine-readable output.

Downstream users typically want the whole comparison grid, not single
runs.  :func:`run_suite` executes a (benchmarks x policies) matrix on
:func:`repro.sim.parallel.run_grid` — in this process by default, or
fanned out across process slots with ``RunOptions(workers=N)`` — and
returns a :class:`SuiteResult` that renders as text, JSON, or CSV, so
results can feed external plotting without re-simulation.

Either way the run is failure-tolerant: a task that keeps crashing or
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.cache.replacement.registry import split_specs
from repro.sim.options import RunOptions
from repro.sim.runner import Task, ipc_improvement, trace_scale
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
    cells the engine could not complete; those cells are simply absent
    from ``results``.  ``meta`` is the engine's observability report.
    """

    policies: List[str]
    benchmarks: List[str]
    results: Dict[str, Dict[str, SimResult]]
    scale: Optional[float]
    failures: Dict[str, Dict[str, str]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
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

    def runs(self) -> List[SimResult]:
        """The result of every completed run."""
        return [
            result for row in self.results.values() for result in row.values()
        ]

    def merged_metrics(self) -> Optional[Dict[str, object]]:
        """Merge of every cell's telemetry snapshot, or None
        (:func:`repro.obs.merged_metrics`)."""
        return obs.merged_metrics(self.runs())

    def content_digest(self) -> str:
        """Hash of the suite's *deterministic* content.

        Covers the scale, every completed cell's exported fields, the
        failure map, and the merged telemetry snapshot — and nothing
        host- or schedule-dependent (``meta`` carries wall times and
        worker pids, so it is excluded).  Two runs of the same matrix
        must digest identically whether they ran serially, across a
        pool, under chaos injection, or finished by a re-run after an
        interrupt; the chaos differential (``python -m
        repro.sim.chaos``) asserts exactly that.
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

    The grid runs on :func:`repro.sim.parallel.run_grid`, in this
    process at ``RunOptions(workers=0)`` (the default) and on N process
    slots at ``workers=N``: failures become ``SuiteResult.failures``
    entries (with full tracebacks), every finished cell is saved to the
    result store (so re-running an interrupted suite simulates only the
    missing cells), and the observability + resilience report lands in
    ``SuiteResult.meta``.  Every worker count produces bit-identical
    ``SimResult`` values, so :meth:`SuiteResult.content_digest`
    matches across them.

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
    from repro.sim.parallel import run_grid

    grid = run_grid(tasks, options=options)
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
        meta=grid.meta(),
        oracle=grid.oracle,
    )


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
    parser.add_argument(
        "--scale", type=common_cli.scale_value, default=None,
        help="trace-length multiplier (default: REPRO_SCALE env or 1.0)",
    )
    parser.add_argument(
        "--oracle", action="store_true",
        help="compute offline OPT / cost-weighted-OPT bounds per "
             "benchmark and add oracle_misses / oracle_stall_cycles / "
             "miss_regret / stall_regret to every cell (see "
             "docs/policies.md)",
    )
    parser.add_argument("--json", metavar="FILE", default=None)
    parser.add_argument("--csv", metavar="FILE", default=None)
    args = parser.parse_args(argv)

    common_cli.check_grid_args(parser, args)
    common_cli.check_env_scale(parser, args)
    common_cli.apply_telemetry(args)
    options = common_cli.options_from_args(args)

    suite = run_suite(
        policies=split_specs(args.policies),
        benchmarks=split_specs(args.benchmarks) if args.benchmarks else None,
        scale=args.scale,
        options=options,
        oracle=args.oracle,
    )
    print(suite.to_text())
    meta = suite.meta
    print(
        "[%s: %.1fs, %.0f%% utilization, cache %d hit / %d miss, %d failed]"
        % (
            common_cli.workers_label(meta["workers"]),
            meta["elapsed_s"],
            100.0 * meta["worker_utilization"],
            meta["cache"]["hits"],
            meta["cache"]["misses"],
            meta["failed_tasks"],
        ),
        file=sys.stderr,
    )
    resilience = meta["resilience"]
    if resilience["retries"] or resilience["worker_rebuilds"]:
        print(
            "[resilience: %d retries, %d worker rebuilds, %d store "
            "entries quarantined]"
            % (
                resilience["retries"],
                resilience["worker_rebuilds"],
                resilience["store_quarantined"],
            ),
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
        common_cli.write_metrics(args, suite.runs())
    if meta.get("interrupted"):
        print("interrupted — %s" % common_cli.RERUN_HINT, file=sys.stderr)
        return 130
    return 1 if suite.failures else 0


if __name__ == "__main__":
    sys.exit(main())
