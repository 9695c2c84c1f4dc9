"""Table 1: predictability of mlp-cost (the delta study).

delta = |mlp-cost(n) - mlp-cost(n-1)| for successive misses to the same
block.  Small deltas mean last-time cost predicts next-time cost; the
three benchmarks with large average deltas (bzip2, parser, mgrid) are
exactly the ones LIN degrades.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    paper_entry,
    policy_cells,
    resolve_benchmarks,
)
from repro.sim.runner import Task
from repro.workloads import PAPER_TABLE1

cells = policy_cells(("lru",))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "table1", "Table 1: distribution of delta (mlp-cost predictability)"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks):
        result = results[Task(name, "lru", scale)]
        summary = result.delta_summary
        paper = paper_entry(PAPER_TABLE1, name)
        rows.append(
            (
                name,
                "%.0f%%" % summary.pct_below_60,
                "%d%%" % paper[0] if paper else "-",
                "%.0f%%" % summary.pct_60_to_119,
                "%d%%" % paper[1] if paper else "-",
                "%.0f%%" % summary.pct_120_plus,
                "%d%%" % paper[2] if paper else "-",
                "%.0f" % summary.average,
                paper[3] if paper and paper[3] is not None else "-",
            )
        )
    report.add_table(
        [
            "benchmark",
            "<60", "paper",
            "60-119", "paper",
            ">=120", "paper",
            "avg", "paper",
        ],
        rows,
    )
    report.add_note(
        "The paper states average deltas only for the three pathological\n"
        "benchmarks (bzip2 126, parser 109, mgrid 187 cycles); elsewhere it\n"
        "reports the averages are 'fairly low'."
    )
    return report
