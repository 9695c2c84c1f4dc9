"""Figure 5: mlp-cost distribution, baseline vs LIN(4), with insets.

For each benchmark the paper overlays the LIN(4) cost distribution on
the baseline one and annotates the change in misses and IPC.  This
experiment prints both distributions side by side plus the insets,
compared against the published values.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    fmt_pct,
    paper_entry,
    policy_cells,
    resolve_benchmarks,
)
from repro.experiments.figure2 import bucket_labels
from repro.sim.runner import ipc_improvement, miss_change
from repro.workloads import PAPER_FIG5

cells = policy_cells(("lru", "lin(4)"))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure5",
        "Figure 5: mlp-cost distribution and MISS/IPC change, LRU vs LIN(4)",
    )
    labels = bucket_labels()
    summary_rows = []
    for name in resolve_benchmarks(benchmarks):
        baseline, lin = (results[task] for task in cells(scale, [name]))
        miss_delta = miss_change(lin, baseline)
        ipc_delta = ipc_improvement(lin, baseline)
        paper = paper_entry(PAPER_FIG5, name)
        paper_miss, paper_ipc = (
            [fmt_pct(value) for value in paper] if paper else ["-", "-"]
        )
        report.add_note(
            "%s: MISS %s (paper %s), IPC %s (paper %s)"
            % (
                name,
                fmt_pct(miss_delta),
                paper_miss,
                fmt_pct(ipc_delta),
                paper_ipc,
            )
        )
        rows = [
            (
                label,
                "%.1f%%" % base_pct,
                "%.1f%%" % lin_pct,
            )
            for label, base_pct, lin_pct in zip(
                labels,
                baseline.cost_distribution.percentages,
                lin.cost_distribution.percentages,
            )
        ]
        rows.append(
            (
                "avg cost",
                "%.0f" % baseline.cost_distribution.average,
                "%.0f" % lin.cost_distribution.average,
            )
        )
        report.add_table(["cycles", "base", "lin(4)"], rows)
        summary_rows.append(
            (
                name,
                fmt_pct(miss_delta), paper_miss,
                fmt_pct(ipc_delta), paper_ipc,
            )
        )
    report.add_note("Summary (the Figure 5 insets):")
    report.add_table(
        ["benchmark", "dMISS", "paper", "dIPC", "paper"], summary_rows
    )
    return report
