"""Command-line simulation driver.

Usage::

    python -m repro.sim --benchmark mcf --policy "lin(4)"
    python -m repro.sim --workload "interleave(mcf,art)" --policy sbar
    python -m repro.sim --workload "champsim:/traces/server.xz" --policy lru
    python -m repro.sim --benchmark ammp --policy sbar --phase-interval 500000
    python -m repro.sim --trace my_trace.npz --policy lru --l2-kb 1024

Shares the common execution/telemetry flags with the other CLIs
(:mod:`repro.sim.common_cli`).  Benchmark runs go through
:func:`repro.sim.runner.run_policy`, so they hit (and populate) the
persistent result store like every other entry point; ``--no-cache``
forces a fresh simulation.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import scaled_config
from repro.sim import common_cli
from repro.sim.simulator import Simulator
from repro.trace.trace_io import open_trace
from repro.workloads import BENCHMARKS, experiment_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Simulate one workload under one replacement policy.",
        parents=[common_cli.execution_parent(),
                 common_cli.telemetry_parent()],
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--benchmark", choices=BENCHMARKS, help="SPEC CPU2000 surrogate"
    )
    source.add_argument(
        "--workload", metavar="SPEC",
        help='any workload registry spec, e.g. "interleave(mcf,art)", '
             '"champsim:/path.xz", "cdf(web_search,ops=2e6)" '
             "(python -m repro.workloads --list)",
    )
    source.add_argument(
        "--trace", metavar="FILE",
        help="trace file: native .npz or ChampSim/lackey text "
             "(gzip/xz ok; format sniffed from content)",
    )
    parser.add_argument(
        "--policy", default="lru",
        help='"lru", "lin", "lin(N)", "sbar", "sbar(simple-static,16)", '
             '"cbs-local", "cbs-global" (default: lru)',
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace-length multiplier"
    )
    parser.add_argument(
        "--l2-kb", type=int, default=None,
        help="L2 capacity in KB (default: the 256KB experiment machine; "
             "1024 for the faithful Table 2 machine)",
    )
    parser.add_argument(
        "--phase-interval", type=int, default=None,
        help="emit per-interval samples every N instructions",
    )
    args = parser.parse_args(argv)

    common_cli.apply_telemetry(args)
    options = common_cli.options_from_args(args)

    config = (
        scaled_config(args.l2_kb) if args.l2_kb else experiment_config()
    )
    workload = args.benchmark or args.workload
    if workload:
        from repro.sim.runner import run_policy
        from repro.workloads import canonical_workload_spec

        result = run_policy(
            workload,
            args.policy,
            scale=args.scale,
            config=config,
            phase_interval=args.phase_interval,
            options=options,
        )
        print("workload: %s  (%d instructions)"
              % (canonical_workload_spec(workload), result.instructions))
    else:
        trace = open_trace(args.trace)
        simulator = Simulator(
            config, args.policy, phase_interval=args.phase_interval
        )
        result = simulator.run(trace)
        print("workload: %s  (%d accesses, %d instructions)"
              % (args.trace, len(trace), result.instructions))
    print(result.summary_line())
    print("  long stalls: %d   stall cycles: %.0f (%.1f%% of runtime)"
          % (result.long_stalls, result.stall_cycles,
             100.0 * result.stall_cycles / max(result.cycles, 1.0)))
    print("  cost distribution (%%):",
          " ".join("%.1f" % p for p in result.cost_distribution.percentages))
    delta = result.delta_summary
    print("  delta: <60 %.0f%%  60-119 %.0f%%  >=120 %.0f%%  avg %.0f cycles"
          % (delta.pct_below_60, delta.pct_60_to_119,
             delta.pct_120_plus, delta.average))
    if result.psel_final is not None:
        print("  final PSEL: %d" % result.psel_final)
    if result.phases:
        print("  per-interval IPC:",
              " ".join("%.2f" % p.ipc for p in result.phases[:40]))
    if args.metrics_out:
        common_cli.write_metrics(args, [result])
    return 0


if __name__ == "__main__":
    sys.exit(main())
