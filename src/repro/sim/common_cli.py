"""One CLI surface for every execution entry point.

``repro.sim``, ``repro.sim.suite``, ``repro.experiments``, and
``repro.bench`` all execute simulations.  This module owns their shared
flags once, as argparse *parent parsers*:

* :func:`execution_parent` — how to execute one simulation:
  ``--no-cache``.
* :func:`grid_parent` — how to execute a grid of them: ``--workers``,
  ``--progress``, ``--resume``, ``--max-retries``, ``--deadline``,
  ``--chaos``.  Only the CLIs that run grids take these.
  :func:`check_grid_args` reports the combinations that cannot work
  as usage errors, and :func:`options_from_args` folds either
  namespace into one :class:`~repro.sim.options.RunOptions`.
* :func:`telemetry_parent` — what to observe: ``--metrics-out``,
  ``--trace-events``.  :func:`apply_telemetry` pushes them into
  :mod:`repro.obs`, and :func:`write_metrics` writes the merge of the
  snapshots of the results a command returns.

Adding a new execution flag means touching exactly this module and
:class:`RunOptions`; every CLI picks it up via ``parents=[...]``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.sim.options import RunOptions, check_workers


def worker_count(text: str, least: int = 0) -> int:
    """``type=`` of every ``--workers`` flag: :func:`check_workers`,
    reported as a usage error."""
    workers = int(text)
    try:
        return check_workers(workers, least)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def slot_worker_count(text: str) -> int:
    """``type=`` of the job service's ``--workers``: 1 or more slots."""
    return worker_count(text, least=1)


def execution_parent() -> argparse.ArgumentParser:
    """Parent parser with the flags of every simulating CLI.

    Use as ``argparse.ArgumentParser(parents=[execution_parent()])``;
    ``add_help=False`` so the child's ``-h`` wins.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--no-cache", action="store_true",
        help="bypass the in-process memo and the persistent store",
    )
    return parent


def grid_parent() -> argparse.ArgumentParser:
    """Parent parser with the flags of the CLIs that run grids."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("grid execution")
    group.add_argument(
        "--workers", type=worker_count, default=0, metavar="N",
        help="run cells on N worker processes (default: 0, in this "
             "process)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="print one line per finished task to stderr",
    )
    group.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="replay an interrupted run's journal: completed cells come "
             "from the result store, only missing cells re-execute",
    )
    group.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-executions allowed per task after a failure "
             "(default: 1)",
    )
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget, enforced in the worker",
    )
    group.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help='seeded fault injection for testing, e.g. '
             '"crash=0.2,delay=0.3,seed=7" (see repro.sim.chaos)',
    )
    return parent


def service_parent() -> argparse.ArgumentParser:
    """Parent parser with the shared job-service connection flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("service")
    group.add_argument(
        "--host", default="127.0.0.1",
        help="job service host (default: 127.0.0.1)",
    )
    group.add_argument(
        "--port", type=int, default=7663,
        help="job service TCP port (default: 7663; 0 binds an "
             "ephemeral port when serving)",
    )
    group.add_argument(
        "--tenant", default="anonymous", metavar="NAME",
        help="tenant identity for quota accounting (default: anonymous)",
    )
    return parent


def telemetry_parent() -> argparse.ArgumentParser:
    """Parent parser with the shared telemetry flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="enable metrics and write the merge of the returned "
             "results' snapshots as JSON",
    )
    group.add_argument(
        "--trace-events", metavar="FILE", default=None,
        help="write a JSONL event trace (workers append .<pid>)",
    )
    return parent


def check_grid_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Report grid flags that cannot work as usage errors."""
    if args.no_cache and args.resume:
        parser.error(
            "--resume replays cells from the result store; it cannot be "
            "combined with --no-cache"
        )
    try:
        options_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))


def options_from_args(
    args: argparse.Namespace,
    progress=None,
) -> RunOptions:
    """Fold a parsed execution namespace into one :class:`RunOptions`.

    The grid fields are read only when the parser had
    :func:`grid_parent` (check those first with
    :func:`check_grid_args`).  ``progress`` overrides the callback
    installed when ``--progress`` was passed (default:
    :func:`progress_printer`).
    """
    fields = {"use_cache": not args.no_cache}
    if "workers" not in vars(args):
        return RunOptions(**fields)
    fields.update(
        workers=args.workers, deadline=args.deadline, resume=args.resume
    )
    if args.max_retries is not None:
        fields["max_retries"] = args.max_retries
    if args.chaos:
        from repro.sim.chaos import ChaosConfig

        fields["chaos"] = ChaosConfig.parse(args.chaos)
    if args.progress:
        fields["progress"] = (
            progress if progress is not None else progress_printer
        )
    return RunOptions(**fields)


def apply_telemetry(args: argparse.Namespace) -> None:
    """Push the parsed telemetry flags into :mod:`repro.obs`, and say
    once, on stderr, that telemetry keeps runs on the generic loop."""
    from repro import obs

    if args.metrics_out:
        obs.configure(metrics=True)
    if args.trace_events:
        obs.configure(trace_events=args.trace_events)
    if args.metrics_out or args.trace_events:
        print(
            "note: telemetry keeps runs on the generic loop, off the "
            "native kernel (20-50x slower)",
            file=sys.stderr,
        )


def write_metrics(args: argparse.Namespace, results) -> None:
    """Write ``{"metrics": ...}`` to ``--metrics-out``: the merge of the
    snapshots of ``results``, the :class:`SimResult` values the command
    returns (:func:`repro.obs.merged_metrics`)."""
    import json

    from repro import obs

    payload = {"metrics": obs.merged_metrics(results)}
    with open(args.metrics_out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print("wrote %s" % args.metrics_out)


def workers_label(workers: int) -> str:
    """How a grid ran: ``"N workers"``, or ``"in process"`` for 0."""
    return "%d workers" % workers if workers else "in process"


def progress_printer(report, done, total) -> None:
    """One stderr line per finished task (the ``--progress`` callback)."""
    if report.cache_hit:
        source = "resume" if report.resumed else "cache"
    elif report.worker and report.worker != os.getpid():
        source = "worker %s" % report.worker
    else:
        source = "local"
    status = "ok" if report.ok else "FAILED"
    print(
        "[%d/%d] %-24s %6.2fs  %s  %s"
        % (done, total, report.task.label, report.wall_time, source,
           status),
        file=sys.stderr,
        flush=True,
    )


__all__ = [
    "execution_parent",
    "grid_parent",
    "check_grid_args",
    "service_parent",
    "telemetry_parent",
    "options_from_args",
    "apply_telemetry",
    "write_metrics",
    "progress_printer",
    "workers_label",
    "worker_count",
    "slot_worker_count",
]
