"""End-to-end benchmark of ``python -m repro``: suite, experiments, service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 0 \\
        --seconds 20 --trace 0

One invocation rebuilds the optional C extension, then repeats the
workload's set-up and timed run — each time in a fresh result store —
until ``--seconds`` are used, and prints one JSON object as its last
line of output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics as medians over the runs.
``--trace 1`` alternates untraced runs with runs through the span
bootstrap (``boot.py``) and reports the per-layer metrics instead.
See ``README.md`` in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import cases
import harness
import spans

#: Fewest runs of each kind one invocation makes, whatever ``--seconds``.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
MAX_RUNS = 60

#: name -> unit; end-to-end metrics are all host time or memory, lower
#: is better.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_p50_s": "s",
}

#: Per-layer metrics whose better direction is up; the rest go down.
HIGHER_IS_BETTER = {
    "workloads.build.unique_share",
    "sim.native.accepted",
    "sim.kernel.native",
    "store.hit_share",
    "parallel.worker_utilization",
    "service.cells_deduped",
    "service.cells_store_hits",
}

SERVICE_LAYERS = (
    "service.submit.s",
    "service.cells_executed",
    "service.cells_deduped",
    "service.cells_store_hits",
    "service.rejected",
)


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = list(spans.layer_metrics([], (0.0, 0.0)))
    names.insert(names.index("store.save.s") + 1, "store.quarantined")
    names[-1:-1] = SERVICE_LAYERS  # before unattributed.s
    return names + ["trace.overhead_pct"]


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "_utilization")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if ".ns_per_" in name:
        return "ns"
    return "count"


def metric_table() -> Dict[str, List[Dict[str, object]]]:
    """The ``end_to_end`` and ``per_layer`` entries of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": name, "unit": unit} for name, unit in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": per_layer_unit(name),
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name in per_layer_names()
        ],
    }


def load_pinned(workload: str, seed: Optional[int]) -> Optional[str]:
    """The pinned output digest, for seed 0 (plain surrogates) only.

    ``experiments-pool`` runs the plain surrogates at every seed, so its
    pin always applies.
    """
    if seed and workload != "experiments-pool":
        return None
    with open(harness.BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


class Tally:
    """Runs attempted and failed; a digest mismatch is a failure."""

    def __init__(self, reference: Optional[str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, digest: str) -> None:
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            raise harness.BenchError(
                "output digest %s, expected %s" % (digest, self.reference)
            )


def run_iterations(
    run_one,
    seconds: float,
    traced_too: bool,
    tally: Tally,
) -> Tuple[List, List]:
    """Repeat ``run_one(index, traced)`` until ``seconds`` are used.

    A run starts only while the one before it would still have fitted
    in the budget, and never before each mode has its minimum count.
    With ``traced_too``, runs alternate untraced and traced.  Returns
    the untraced and traced samples that passed.
    """
    passed: Dict[bool, List] = {False: [], True: []}
    tried = {False: 0, True: 0}
    minimum = {False: MIN_TRACED_RUNS if traced_too else MIN_RUNS,
               True: MIN_TRACED_RUNS if traced_too else 0}
    began = time.perf_counter()
    longest = 0.0
    for index in range(MAX_RUNS):
        traced = traced_too and index % 2 == 1
        short = any(tried[mode] < minimum[mode] for mode in tried)
        if not short and time.perf_counter() - began + longest > seconds:
            break
        started = time.perf_counter()
        tally.attempted += 1
        tried[traced] += 1
        try:
            sample = run_one(index, traced)
            tally.check(sample.digest)
        except Exception:  # every failure is counted, then the run goes on
            tally.failed += 1
            print("perfbench: run %d failed:\n%s"
                  % (index, traceback.format_exc()), file=sys.stderr)
        else:
            passed[traced].append(sample)
        longest = max(longest, time.perf_counter() - started)
    return passed[False], passed[True]


def end_to_end_metrics(samples) -> Dict[str, float]:
    def median(attr: str) -> float:
        return statistics.median(getattr(s, attr) for s in samples)

    return {name: median(name) for name in END_TO_END}


def layer_sample(sample, iteration) -> Dict[str, float]:
    metrics = spans.layer_metrics(
        spans.load_spans(iteration.spans), sample.window
    )
    for name in ("store.quarantined",) + SERVICE_LAYERS:
        metrics[name] = sample.layers.get(name, 0)
    return metrics


def measure(args, work) -> Dict[str, object]:
    run_case = cases.CASES[args.workload][0]
    tally = Tally(load_pinned(args.workload, args.seed))

    def run_one(index: int, traced: bool):
        iteration = cases.Iteration(
            work / ("run%02d" % index), args.seed, traced
        )
        with harness.SpeedProbe() as probe:
            sample = run_case(iteration)
        sample.scale_times(probe.factor)
        if traced:
            sample.layers = layer_sample(sample, iteration)
        shutil.rmtree(iteration.dir, ignore_errors=True)
        return sample

    plain, traced = run_iterations(run_one, args.seconds, args.trace, tally)
    print("perfbench: %s output digest %s"
          % (args.workload, tally.reference))
    if args.trace:
        layers = [sample.layers for sample in traced]
        values = spans.median_metrics(layers) if layers else {}
        if layers and plain:
            untraced_wall = end_to_end_metrics(plain)["wall_s"]
            traced_wall = end_to_end_metrics(traced)["wall_s"]
            values["trace.overhead_pct"] = 100.0 * (
                traced_wall / untraced_wall - 1.0
            )
        units = {name: per_layer_unit(name) for name in per_layer_names()}
    else:
        values = end_to_end_metrics(plain) if plain else {}
        units = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end benchmark of python -m repro.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; 0 runs the plain surrogates (default)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.require_source()
    sys.path.insert(0, str(harness.SRC))
    native = harness.build_native()
    print("perfbench: native replay kernel %s"
          % ("built" if native else "unavailable; ladder tops at batched"))
    work = harness.fresh_dir(
        harness.WORK_ROOT / ("%s-%d" % (args.workload, os.getpid()))
    )
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
