"""Figure 4: IPC improvement of the LIN policy as lambda varies 1..4.

The effect of LIN grows with lambda: benchmarks with predictable costs
(small Table 1 deltas) improve, the bzip2/parser/mgrid family degrades.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    fmt_pct,
    paper_entry,
    policy_cells,
    resolve_benchmarks,
)
from repro.sim.runner import ipc_improvement
from repro.workloads import PAPER_FIG5

LAMBDAS = (1, 2, 3, 4)

cells = policy_cells(("lru",) + tuple("lin(%d)" % lam for lam in LAMBDAS))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure4", "Figure 4: IPC improvement of LIN(lambda) over LRU"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline, *lins = (results[task] for task in cells(scale, [name]))
        row = [name]
        for result in lins:
            row.append(fmt_pct(ipc_improvement(result, baseline)))
        paper = paper_entry(PAPER_FIG5, name)
        row.append(fmt_pct(paper[1]) if paper else "-")
        rows.append(row)
    report.add_table(
        ["benchmark"] + ["LIN(%d)" % lam for lam in LAMBDAS] + ["paper LIN(4)"],
        rows,
    )
    report.add_note(
        "The LIN effect strengthens with lambda; LRU is LIN(0) by\n"
        "definition (Equation 2)."
    )
    return report
