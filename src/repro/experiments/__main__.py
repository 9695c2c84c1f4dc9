"""CLI for regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments                 # everything, paper order
    python -m repro.experiments figure9 table1  # a subset
    python -m repro.experiments figure4 --scale 0.3 --benchmarks mcf,art
    python -m repro.experiments --workers 8     # fan simulations out

The CLI first collects the cells of every selected experiment; an
unknown ``--benchmarks`` entry is a usage error before any cell runs.
``--workers N`` runs them all in one grid on the parallel engine
(populating the persistent result store), else they run serially; the
reports then render from cache hits.  The engine flags are the shared
set from :mod:`repro.sim.common_cli` — ``--max-retries``/``--deadline``
harden the grid against flaky workers, and ``--resume RUN_ID`` replays
an interrupted grid's journal.  ``--no-cache`` disables the store and
empties the memo for a guaranteed-fresh run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.cache.replacement.registry import split_specs
from repro.experiments import EXPERIMENTS
from repro.sim import common_cli
from repro.sim.runner import clear_cache, run_task, trace_scale


def _prewarm(tasks, options) -> bool:
    """Run the experiments' cells in one grid on the parallel engine.

    Returns False when the grid was interrupted (Ctrl-C) — the caller
    should stop instead of re-simulating everything serially.  A cell
    the grid failed runs once more, serially, in its experiment's run.
    """
    from repro.sim.parallel import run_grid

    if not tasks:
        return True
    grid = run_grid(tasks, options=options)
    # Worker-side runs finalize their telemetry in the worker process;
    # fold the merged per-result snapshots into this process's session
    # so --metrics-out sees the whole grid.
    obs.record_session(grid.merged_metrics())
    print(
        "[prewarm: %d tasks on %d workers in %.1fs — %.0f%% utilization, "
        "cache %d hit / %d miss, %d failed]"
        % (
            len(grid.reports),
            grid.workers,
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
        print("[prewarm FAILED %s: %s]" % (task.label, message),
              file=sys.stderr)
    if grid.interrupted:
        print(
            "[prewarm interrupted — resume with: python -m "
            "repro.experiments --workers %d --resume %s]"
            % (grid.workers, grid.run_id),
            file=sys.stderr,
        )
        return False
    return True


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
        type=float,
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
    if args.no_cache and args.workers:
        parser.error(
            "--workers prewarms the result store for the serial render; "
            "it cannot be combined with --no-cache"
        )

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
        tasks = [
            task
            for name in names
            for task in EXPERIMENTS[name].cells(scale, benchmarks)
        ]
    except KeyError as error:  # an unknown --benchmarks spec
        parser.error(error.args[0])

    if not options.use_cache:
        os.environ["REPRO_NO_STORE"] = "1"
        clear_cache()
    if options.workers or options.resume:
        if not _prewarm(tasks, options):
            return 130
    else:
        for task in tasks:
            run_task(task)

    for name in names:
        started = time.time()
        report = EXPERIMENTS[name].run(scale=scale, benchmarks=benchmarks)
        print(report.render())
        print("[%s finished in %.1fs]\n" % (name, time.time() - started))
    if args.metrics_out:
        common_cli.write_metrics(args, obs.session_snapshot())
    return 0


if __name__ == "__main__":
    sys.exit(main())
