"""CLI: ``python -m repro.bench [--out BENCH_<tag>.json]``.

Runs the macro-benchmarks and writes a schema-validated report (see
:mod:`repro.bench.report`).  ``--quick`` runs a smoke-sized variant for
CI; its timings are meaningless but the report shape and the embedded
simulation results are still checked.

Refuses to overwrite an existing report unless ``--force`` is given —
the committed baseline (``BENCH_pr28.json``) is easy to clobber by
re-running with the same ``--tag`` otherwise.

``--check REPORT --cell WORKLOAD/POLICY`` re-simulates one macro cell
at the report's recorded scale and compares the machine-independent
result fields; ``--check REPORT`` alone verifies every macro cell.
That is the CI perf-smoke check: a digest mismatch means the
simulation kernel changed behavior.  Timings are never compared.

Each cell records the replay path that actually ran (``kernel_used``)
and, when it was the generic loop, the native gate that failed
(``kernel_fallback``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.macro import run_macro
from repro.bench.report import (
    build_report,
    check_macro_cell,
    entry_task,
    validate_report,
)
from repro.sim.runner import cell_label


def _check_mode(report_path: str, cell: str) -> int:
    with open(report_path) as handle:
        report = json.load(handle)
    validate_report(report)
    # Every macro cell the report recorded, or the first one --cell
    # names by its label.
    tasks = [entry_task(entry) for entry in report["macro"]]
    if cell is not None:
        if "/" not in cell:
            print(
                "--cell must look like WORKLOAD/POLICY, got %r" % cell,
                file=sys.stderr,
            )
            return 2
        tasks = [task for task in tasks if cell_label(task) == cell][:1]
        if not tasks:
            print("FAIL: report has no macro cell %s" % cell,
                  file=sys.stderr)
            return 1
    failures = 0
    for task in tasks:
        try:
            fresh = check_macro_cell(report, task)
        except ValueError as exc:
            failures += 1
            print("FAIL: %s" % exc, file=sys.stderr)
            continue
        print("OK: %s results match %s (%s)" % (
            cell_label(task), report_path,
            ", ".join("%s=%s" % item for item in sorted(fresh.items())),
        ))
    if failures:
        print("%d of %d cells FAILED" % (failures, len(tasks)),
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure simulation-kernel performance and write a "
        "BENCH_<tag>.json report.",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_<tag>.json)",
    )
    parser.add_argument(
        "--tag", default="local",
        help="report tag recorded in the file (default: local)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="macro-benchmark trace scale (default: 0.5)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="timed repetitions per macro cell, best-of (default: 2)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: tiny traces, single repetition (CI)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite the output file if it already exists",
    )
    parser.add_argument(
        "--check", metavar="REPORT", default=None,
        help="re-simulate one macro cell of REPORT and compare its "
        "machine-independent results (requires --cell); no report is "
        "written",
    )
    parser.add_argument(
        "--cell", metavar="WORKLOAD/POLICY", default=None,
        help="macro cell to verify in --check mode, e.g. mcf/sbar "
             "(default: every recorded cell)",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        return _check_mode(args.check, args.cell)
    if args.cell is not None:
        parser.error("--cell only makes sense with --check")

    out = args.out or ("BENCH_%s.json" % args.tag)
    if os.path.exists(out) and not args.force:
        print(
            "refusing to overwrite existing %s (pass --force to replace it)"
            % out,
            file=sys.stderr,
        )
        return 2

    print("running macro-benchmarks%s..." % (" (quick)" if args.quick else ""))
    macro = run_macro(scale=args.scale, repeat=args.repeat, quick=args.quick)
    for entry in macro:
        label = cell_label(entry_task(entry))
        print(
            "  %-15s %-7s %8.0f accesses/s  (%.3fs, %d L2 misses)"
            % (label, entry["kernel_used"], entry["accesses_per_sec"],
               entry["seconds"], entry["result"]["l2_misses"])
        )

    report = build_report(macro, tag=args.tag)
    validate_report(report)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s (schema %s, code %s)" % (
        out, report["schema"], report["code_version"]
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
