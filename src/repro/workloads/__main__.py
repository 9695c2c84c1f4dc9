"""Workload registry CLI: list, describe, digest, export.

Usage::

    python -m repro.workloads --list
    python -m repro.workloads --describe "interleave(mcf,art)"
    python -m repro.workloads --digest mcf "splice(mcf@0.5,ammp)" --scale 0.1
    python -m repro.workloads --save art.npz --spec art --scale 0.25

``--digest`` builds each spec and prints ``<content digest>  <records>
<canonical spec>`` — CI's workload-zoo smoke job runs it twice and
diffs the output to assert deterministic trace generation.
"""

from __future__ import annotations

import argparse
import sys

from repro.sim.common_cli import scale_value
from repro.workloads.registry import (
    UnknownWorkloadError,
    WorkloadSpecError,
    available_workloads,
    parse_workload_spec,
)


def _describe(spec: str, scale: float) -> int:
    workload = parse_workload_spec(spec)
    trace = workload.build(scale)
    print("spec:        %s" % spec)
    print("canonical:   %s" % workload.canonical)
    print("fingerprint: %s" % workload.fingerprint())
    print("records:     %d  (scale %s)" % (len(trace), scale))
    print("instructions:%d" % trace.total_instructions())
    print("digest:      %s" % trace.content_digest())
    return 0


def _digest(specs, scale: float) -> int:
    for spec in specs:
        workload = parse_workload_spec(spec)
        trace = workload.build(scale)
        print(
            "%s  %8d  %s"
            % (trace.content_digest(), len(trace), workload.canonical)
        )
    return 0


def _save(spec: str, path: str, scale: float) -> int:
    from repro.trace.trace_io import save_trace

    trace = parse_workload_spec(spec).build(scale)
    save_trace(path, trace)
    print("wrote %s (%d records, digest %s)"
          % (path, len(trace), trace.content_digest()))
    return 0


def _list() -> int:
    from repro.workloads.registry import _BUILTIN

    for name in available_workloads():
        print("%-12s %s" % (name, "" if name in _BUILTIN else "(user)"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Inspect the workload registry and build traces.",
    )
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--list", action="store_true",
        help="list registered workload names (default action)",
    )
    action.add_argument(
        "--describe", metavar="SPEC",
        help="parse SPEC and print its canonical form, fingerprint, "
             "and built-trace stats",
    )
    action.add_argument(
        "--digest", metavar="SPEC", nargs="+",
        help="build each SPEC and print its deterministic content "
             "digest, record count, and canonical form",
    )
    action.add_argument(
        "--save", metavar="FILE",
        help="build --spec and save it as a native .npz trace",
    )
    parser.add_argument(
        "--spec", metavar="SPEC", default=None,
        help="workload spec for --save",
    )
    parser.add_argument(
        "--scale", type=scale_value, default=1.0,
        help="trace-length multiplier (default 1.0)",
    )
    args = parser.parse_args(argv)

    try:
        if args.describe:
            return _describe(args.describe, args.scale)
        if args.digest:
            return _digest(args.digest, args.scale)
        if args.save:
            if not args.spec:
                parser.error("--save needs --spec")
            return _save(args.spec, args.save, args.scale)
        return _list()
    except (UnknownWorkloadError, WorkloadSpecError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
