"""Paired timing of two builds of the native replay kernel, in one process.

Usage, from the root of a checkout (the extension built)::

    python tools/kernel_ab.py [A.so [B.so]] [--scale 0.25] [--rounds 9]
        [--cells mcf:lru,art:sbar | --cells suite] [--profile]

Each ``*.so`` is a build of ``repro._native.replaykernel``; a missing
one defaults to the in-place build, so with no paths the two sides are
two copies of one build (an A/A run, which shows the noise floor).
Both are loaded into this process, and every round replays each cell
on A and on B, in alternating order, from one identical
``native._build_params`` dict.  ``--cells suite`` means the 42 cells of
a cold ``repro suite``: the 14 surrogates under ``lru``, ``lin(4)`` and
``sbar``.  The report gives each side's minimum ``kernel_s`` per cell
and in total: alternating within one process cancels most of the drift
of a shared host, which an unpaired before-and-after comparison cannot.
Below it, each side's median time per round of whole ``replay()``
calls, and the rounds in which B's were faster: ``kernel_s`` times the
loop alone, so a change that moves cost into the kernel's set-up or
teardown shows only there.  Outputs must be identical on both sides,
apart from the stage timers, or the tool exits 1.

``--profile`` needs a profile build on a side (``make native-profile``
compiles one with ``-DREPRO_PROFILE -g``): its replays return the
instruction pointers that a ``SIGPROF`` timer sampled during the loop.
They are mapped to functions, inlined helpers included, with
``addr2line -f -i``; samples outside the kernel are named by the shared
object they fall in.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.sim import native  # noqa: E402
from repro.sim.runner import Task, packed_trace  # noqa: E402
from repro.workloads import BENCHMARKS  # noqa: E402

#: Output keys that differ between runs by design.
TIMERS = ("kernel_s", "emit_s", "profile_ips")

DEFAULT_CELLS = "mcf:lru,mcf:lin(4),art:sbar,mcf:cbs-global"

#: The policies of a cold ``repro suite``, which ``--cells suite`` runs
#: on every surrogate.
SUITE_POLICIES = ("lru", "lin(4)", "sbar")


def parse_cells(spec: str) -> List[Tuple[str, str]]:
    if spec == "suite":
        return [(benchmark, policy) for benchmark in BENCHMARKS
                for policy in SUITE_POLICIES]
    return [tuple(cell.split(":", 1)) for cell in spec.split(",")]


def in_place_build() -> str:
    builds = glob.glob(str(ROOT / "src/repro/_native/replaykernel*.so"))
    if not builds:
        sys.exit("no in-place build: run `make native` first")
    return builds[0]


def load_build(path: str, side: str, workdir: str):
    """Load the build at ``path`` as a module of its own.

    The file is copied first, so two copies of one build are two
    ``dlopen`` handles with their own static state.
    """
    copy = os.path.join(workdir, "%s_%s" % (side, os.path.basename(path)))
    shutil.copyfile(path, copy)
    # The init function is found by the last dotted component.
    spec = importlib.util.spec_from_file_location(
        "kernel_%s.replaykernel" % side, copy
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, copy


def cell_params(cells: Sequence[Tuple[str, str]], scale: float) -> List[dict]:
    """One kernel params dict per (benchmark, policy) cell."""
    params = []
    for benchmark, policy in cells:
        task = Task(benchmark, policy, scale)
        trace = packed_trace(benchmark, scale=scale)
        sim = task.simulator()
        reason = native.fallback_reason(sim, trace)
        if reason is not None:
            sys.exit("%s/%s does not run native: %s" % (benchmark, policy,
                                                         reason))
        params.append(native._build_params(sim, trace))
    return params


def comparable(out: dict) -> dict:
    return {key: value for key, value in out.items() if key not in TIMERS}


def profile_split(ips: List[int], build: str) -> List[Tuple[str, int]]:
    """Sample counts by function (kernel) or by shared object (outside)."""
    maps = []
    with open("/proc/self/maps") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) < 6:
                continue
            low, high = (int(part, 16) for part in fields[0].split("-"))
            maps.append((low, high, int(fields[2], 16), fields[5]))
    counts: Counter = Counter()
    inside: Dict[int, int] = {}
    for ip in ips:
        owner = next((m for m in maps if m[0] <= ip < m[1]), None)
        if owner is None:
            counts["[unknown]"] += 1
        elif owner[3] == build:
            offset = ip - owner[0] + owner[2]
            inside[offset] = inside.get(offset, 0) + 1
        else:
            counts["[%s]" % os.path.basename(owner[3])] += 1
    if inside:
        offsets = sorted(inside)
        lines = subprocess.run(
            ["addr2line", "-f", "-i", "-e", build, "-a"]
            + ["0x%x" % offset for offset in offsets],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        # With -a each address prints as 0x..., then function/location
        # pairs, innermost inlined frame first.
        function: Dict[int, str] = {}
        current = None
        for line in lines:
            if line.startswith("0x"):
                current = int(line, 16)
            elif current is not None and current not in function:
                function[current] = line
        for offset, count in inside.items():
            counts[function.get(offset, "??")] += count
    return counts.most_common()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/kernel_ab.py",
        description="Paired kernel_s of two replay-kernel builds.",
    )
    parser.add_argument("builds", nargs="*", metavar="BUILD.so",
                        help="A, then B (default: the in-place build)")
    parser.add_argument("--cells", default=DEFAULT_CELLS,
                        help="benchmark:policy pairs, or `suite` for the "
                             "42 cells of a cold suite "
                             "(default: %(default)s)")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--profile", action="store_true",
                        help="print the sampled split of a profile build")
    args = parser.parse_args(argv)
    if len(args.builds) > 2:
        parser.error("at most two builds")
    paths = list(args.builds) + [in_place_build()] * (2 - len(args.builds))
    cells = parse_cells(args.cells)
    params = cell_params(cells, args.scale)

    workdir = tempfile.mkdtemp(prefix="kernel_ab-")
    try:
        sides = [load_build(path, side, workdir)
                 for side, path in zip("ab", paths)]
        best = [[float("inf")] * len(cells) for _ in sides]
        # Per round, each side's summed wall time of whole replay() calls.
        calls = [[0.0] * args.rounds for _ in sides]
        samples: List[List[int]] = [[] for _ in sides]
        for round_index in range(args.rounds):
            for cell, cell_params_dict in enumerate(params):
                order = (0, 1) if (round_index + cell) % 2 == 0 else (1, 0)
                outs = {}
                for side in order:
                    start = perf_counter()
                    out = sides[side][0].replay(cell_params_dict)
                    calls[side][round_index] += perf_counter() - start
                    best[side][cell] = min(best[side][cell], out["kernel_s"])
                    ips = out.get("profile_ips")
                    if ips:
                        samples[side].extend(memoryview(ips).cast("Q"))
                    outs[side] = comparable(out)
                if outs[0] != outs[1]:
                    print("outputs differ on %s/%s" % cells[cell],
                          file=sys.stderr)
                    return 1

        print("%-22s %12s %12s %8s" % ("cell", "A kernel_s", "B kernel_s",
                                       "B/A"))
        for cell, (benchmark, policy) in enumerate(cells):
            a, b = best[0][cell], best[1][cell]
            print("%-22s %12.6f %12.6f %8.3f"
                  % ("%s/%s" % (benchmark, policy), a, b, b / a))
        total_a, total_b = sum(best[0]), sum(best[1])
        print("%-22s %12.6f %12.6f %8.3f"
              % ("total", total_a, total_b, total_b / total_a))
        median_a, median_b = median(calls[0]), median(calls[1])
        print("%-22s %12.6f %12.6f %8.3f"
              % ("replay() per round", median_a, median_b,
                 median_b / median_a))
        won = sum(b < a for a, b in zip(*calls))
        print("B's replay() calls were faster in %d of %d rounds"
              % (won, args.rounds))
        print("outputs identical on all %d cells x %d rounds"
              % (len(cells), args.rounds))

        if args.profile:
            profiled = False
            for side, (module, copy) in enumerate(sides):
                if not samples[side]:
                    continue
                profiled = True
                total = len(samples[side])
                print("\nprofile of %s (%s): %d samples"
                      % ("AB"[side], paths[side], total))
                for name, count in profile_split(samples[side], copy):
                    print("  %6.1f%%  %s" % (100.0 * count / total, name))
            if not profiled:
                print("no samples: neither side is a REPRO_PROFILE build "
                      "(make native-profile)", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
