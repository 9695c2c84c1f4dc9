"""Extension: interaction between prefetching and MLP-aware replacement.

The paper's Section 2 lists prefetching among the techniques that
improve MLP.  A stride prefetcher converts streaming misses into
overlapped (or eliminated) ones, which reshapes the mlp-cost
distribution LIN feeds on: benchmarks whose LIN benefit comes from
protecting isolated misses keep it; benchmarks whose benefit came from
filtering prefetchable streams lose some of it to the prefetcher.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import Report, fmt_pct, resolve_benchmarks
from repro.sim.runner import run_policy, trace_scale

DEFAULT_BENCHMARKS = ("art", "mcf", "vpr", "lucas")
#: Every benchmark runs both policies without and with a degree-2
#: stride prefetcher: 16 cells on the defaults, all prewarmed.
PREWARM_POLICIES = ("lru", "lin(4)")
PREWARM_PREFETCH_DEGREES = (None, 2)


def run(
    scale: Optional[float] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> Report:
    if scale is None:
        scale = trace_scale()
    names = (
        list(DEFAULT_BENCHMARKS)
        if benchmarks is None
        else resolve_benchmarks(benchmarks)
    )
    report = Report(
        "prefetch", "Extension: stride prefetching x MLP-aware replacement"
    )
    rows = []
    for name in names:
        lru_plain, lin_plain, lru_pref, lin_pref = (
            run_policy(name, policy, scale=scale, prefetch_degree=degree)
            for degree in PREWARM_PREFETCH_DEGREES
            for policy in PREWARM_POLICIES
        )
        gain_plain = 100 * (lin_plain.ipc - lru_plain.ipc) / lru_plain.ipc
        gain_pref = 100 * (lin_pref.ipc - lru_pref.ipc) / lru_pref.ipc
        coverage = 0.0
        if lru_plain.demand_misses:
            coverage = 100 * (
                1 - lru_pref.demand_misses / lru_plain.demand_misses
            )
        rows.append(
            (
                name,
                fmt_pct(coverage, signed=False),
                "%.0f" % lru_plain.avg_mlp_cost,
                "%.0f" % lru_pref.avg_mlp_cost,
                fmt_pct(gain_plain),
                fmt_pct(gain_pref),
            )
        )
    report.add_table(
        [
            "benchmark", "pf coverage", "avg cost", "avg cost+pf",
            "LIN gain", "LIN gain+pf",
        ],
        rows,
    )
    report.add_note(
        "'pf coverage' is the share of demand misses the prefetcher\n"
        "removed under LRU.  Prefetching raises the average cost of the\n"
        "*remaining* misses (the parallel ones get covered first), so\n"
        "what is left is more isolated - the benchmarks that keep their\n"
        "LIN gain are the ones whose gain came from isolated-miss\n"
        "protection rather than stream filtering."
    )
    return report
