"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments                 # everything, paper order
    python -m repro.experiments figure9 table1  # a subset
    python -m repro.experiments figure4 --scale 0.3 --benchmarks mcf,art
    python -m repro.experiments --workers 8     # fan simulations out

The CLI first collects the cells of every selected experiment; an
unknown ``--benchmarks`` entry is a usage error before any cell runs.
It then runs them all in one grid (:func:`repro.sim.parallel.run_grid`:
in this process, or on ``--workers N`` process slots), grouped by
trace so each process builds each trace once, and renders each
experiment from the grid's results.  A cell that still fails after its
retries is printed with a hint to re-run the same command, which
simulates only the cells missing from the result store, and the CLI
exits 1 without rendering; an interrupted grid is finished the same
way.  The engine flags are the shared set from
:mod:`repro.sim.common_cli` — ``--max-retries``/``--deadline`` harden
the grid against flaky cells.  ``--no-cache`` disables the store for a
guaranteed-fresh run.  ``--metrics-out`` writes the merge of the
grid results' metric snapshots.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from repro.cache.replacement.registry import split_specs
from repro.experiments import EXPERIMENTS
from repro.sim import common_cli
from repro.sim.runner import trace_scale


def _run_cells(tasks, options):
    """Run the experiments' cells in one grid; returns its report."""
    from repro.sim.parallel import run_grid

    grid = run_grid(tasks, options=options)
    print(
        "[grid: %d tasks, %s, %.1fs, %.0f%% utilization, "
        "cache %d hit / %d miss, %d failed]"
        % (
            len(grid.reports),
            common_cli.workers_label(grid.workers),
            grid.elapsed,
            100.0 * grid.utilization,
            grid.cache_hits,
            grid.cache_misses,
            len(grid.failures),
        ),
        file=sys.stderr,
    )
    for task, failure in grid.failures.items():
        # The failure string is the full remote traceback; the last
        # line is the exception message.
        message = failure.strip().splitlines()[-1]
        print("[FAILED %s: %s]" % (task.label, message), file=sys.stderr)
    if grid.interrupted or grid.failures:
        print(
            "[%s — %s]"
            % ("interrupted" if grid.interrupted else "cells failed",
               common_cli.RERUN_HINT),
            file=sys.stderr,
        )
    return grid


def _by_trace(tasks):
    """``tasks`` stably sorted by (canonical workload, scale).

    Experiment order cycles through every benchmark, which would make
    each process's bounded trace memo rebuild traces; grouped, a cell
    finds the trace the cell before it built.
    """
    from repro.workloads import canonical_workload_spec

    return sorted(
        tasks,
        key=lambda task: (canonical_workload_spec(task.benchmark), task.scale),
    )


@contextlib.contextmanager
def _store_disabled(disabled: bool):
    """``REPRO_NO_STORE=1`` inside the block when ``disabled``, so the
    renders (the oracle's stored reports) skip the store like the grid;
    the variable is restored on the way out."""
    saved = os.environ.get("REPRO_NO_STORE")
    if disabled:
        os.environ["REPRO_NO_STORE"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_STORE", None)
        else:
            os.environ["REPRO_NO_STORE"] = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        parents=[common_cli.execution_parent(), common_cli.grid_parent(),
                 common_cli.telemetry_parent()],
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="experiment",
        help="experiments to run (default: all); one of %s"
        % ", ".join(EXPERIMENTS),
    )
    parser.add_argument(
        "--scale",
        type=common_cli.scale_value,
        default=None,
        help="trace-length multiplier (default: REPRO_SCALE env or 1.0)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset (default: all 14)",
    )
    args = parser.parse_args(argv)
    common_cli.check_grid_args(parser, args)
    common_cli.check_env_scale(parser, args)

    common_cli.apply_telemetry(args)
    options = common_cli.options_from_args(args)

    names = args.names or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error("unknown experiments: %s" % ", ".join(unknown))
    benchmarks = (
        split_specs(args.benchmarks) if args.benchmarks is not None else None
    )
    scale = trace_scale() if args.scale is None else args.scale
    try:
        cells = {
            name: EXPERIMENTS[name].cells(scale, benchmarks)
            for name in names
        }
    except KeyError as error:  # an unknown --benchmarks spec
        parser.error(error.args[0])

    tasks = [task for name in names for task in cells[name]]
    with _store_disabled(not options.use_cache):
        grid = _run_cells(_by_trace(tasks), options)
        if grid.interrupted:
            return 130
        if grid.failures:
            return 1

        for name in names:
            started = time.time()
            results = {task: grid.results[task] for task in cells[name]}
            report = EXPERIMENTS[name].render(results, scale, benchmarks)
            print(report.render())
            print("[%s finished in %.1fs]\n"
                  % (name, time.time() - started))
    if args.metrics_out:
        common_cli.write_metrics(args, grid.results.values())
    return 0


if __name__ == "__main__":
    sys.exit(main())
