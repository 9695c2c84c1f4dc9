"""Figure 4: IPC improvement of the LIN policy as lambda varies 1..4.

The effect of LIN grows with lambda: benchmarks with predictable costs
(small Table 1 deltas) improve, the bzip2/parser/mgrid family degrades.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    Report,
    fmt_pct,
    paper_entry,
    resolve_benchmarks,
)
from repro.sim.runner import ipc_improvement, run_policy
from repro.workloads import PAPER_FIG5

LAMBDAS = (1, 2, 3, 4)

#: Default-config runs, fanned out by ``--workers`` (see common.py).
PREWARM_POLICIES = ("lru",) + tuple("lin(%d)" % lam for lam in LAMBDAS)


def run(
    scale: Optional[float] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> Report:
    report = Report(
        "figure4", "Figure 4: IPC improvement of LIN(lambda) over LRU"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline = run_policy(name, "lru", scale=scale)
        row = [name]
        for lam in LAMBDAS:
            result = run_policy(name, "lin(%d)" % lam, scale=scale)
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
