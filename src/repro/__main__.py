"""``python -m repro`` — the unified command-line surface.

Every entry point the package grew over time lives under one
umbrella::

    python -m repro run --benchmark mcf --policy lru   # one simulation
    python -m repro suite --policies lru    # paper suite + figures
    python -m repro experiments table1      # per-table/figure drivers
    python -m repro bench --check ...       # performance harness
    python -m repro workloads --list        # workload registry
    python -m repro store --stats           # result-store admin
    python -m repro chaos --workers 2       # resilience battery
    python -m repro serve --workers 4       # job-service daemon
    python -m repro submit --benchmarks ... # job-service client

Each subcommand delegates verbatim to the ``main(argv)`` of the module
that owns it (``repro.sim``, ``repro.sim.suite``,
``repro.experiments``, ...).
"""

from __future__ import annotations

import sys
from typing import List, Optional

#: subcommand -> (module with main(argv), summary line, argv prefix).
#: The prefix re-spells umbrella subcommands that share one backing
#: CLI (serve/submit both live in repro.service.__main__).
_COMMANDS = {
    "run": (
        "repro.sim.__main__", "simulate one benchmark under one or "
        "more policies", [],
    ),
    "suite": (
        "repro.sim.suite", "run the paper's benchmark x policy suite "
        "and emit figures", [],
    ),
    "experiments": (
        "repro.experiments.__main__", "reproduce individual "
        "tables/figures from the paper", [],
    ),
    "bench": (
        "repro.bench.__main__", "performance harness "
        "(macro benchmarks, regression gate)", [],
    ),
    "workloads": (
        "repro.workloads.__main__", "list, validate, and import "
        "workloads", [],
    ),
    "store": (
        "repro.sim.store", "inspect and garbage-collect the result "
        "store", [],
    ),
    "chaos": (
        "repro.sim.chaos", "fault-injection battery for the parallel "
        "engine", [],
    ),
    "serve": (
        "repro.service.__main__", "run the simulation job service",
        ["serve"],
    ),
    "submit": (
        "repro.service.__main__", "submit grids to a running job "
        "service", ["submit"],
    ),
}


def _usage() -> str:
    lines = [
        "usage: python -m repro <command> [options]",
        "",
        "A reproduction of 'A Case for MLP-Aware Cache Replacement'",
        "(Qureshi, Lynch, Mutlu, Patt -- ISCA 2006).",
        "",
        "commands:",
    ]
    for name, (_, summary, _prefix) in _COMMANDS.items():
        lines.append("  %-12s %s" % (name, summary))
    lines += [
        "",
        "Run 'python -m repro <command> --help' for command options.",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    if argv[0] in ("-V", "--version"):
        import repro

        print("repro %s" % repro.__version__)
        return 0
    command, rest = argv[0], argv[1:]
    entry = _COMMANDS.get(command)
    if entry is None:
        print(
            "error: unknown command %r\n\n%s" % (command, _usage()),
            file=sys.stderr,
        )
        return 2
    module_name, _summary, prefix = entry
    import importlib

    module = importlib.import_module(module_name)
    return module.main(prefix + rest)


if __name__ == "__main__":
    sys.exit(main())
