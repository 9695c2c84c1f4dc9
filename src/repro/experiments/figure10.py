"""Figure 10: SBAR sensitivity to leader-set policy and count.

Six configurations: {simple-static, rand-dynamic} x {8, 16, 32} leader
sets.  The paper's finding: performance is insensitive to both knobs
for every benchmark except ammp, whose widely-varying per-set demand
favors rand-dynamic at small leader counts.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    fmt_pct,
    policy_cells,
    resolve_benchmarks,
)
from repro.sim.runner import ipc_improvement

CONFIGS = (
    ("simple-static", 8),
    ("rand-dynamic", 8),
    ("simple-static", 16),
    ("rand-dynamic", 16),
    ("simple-static", 32),
    ("rand-dynamic", 32),
)

cells = policy_cells(("lru",) + tuple(
    "sbar(%s,%d)" % (selection, count) for selection, count in CONFIGS
))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure10",
        "Figure 10: SBAR vs leader-set selection policy and count",
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline, *sbars = (results[task] for task in cells(scale, [name]))
        row = [name]
        for result in sbars:
            row.append(fmt_pct(ipc_improvement(result, baseline)))
        rows.append(row)
    headers = ["benchmark"] + [
        "%s/%d" % ("static" if sel == "simple-static" else "rand", count)
        for sel, count in CONFIGS
    ]
    report.add_table(headers, rows)
    report.add_note(
        "Most benchmarks are insensitive to both knobs; ammp (skewed\n"
        "per-set demand) is the benchmark where selection policy and\n"
        "leader count matter most, as in the paper."
    )
    return report
