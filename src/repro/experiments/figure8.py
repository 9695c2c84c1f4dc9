"""Figure 8: the analytical sampling model (Equations 3-5).

P(Best) — the probability that PSEL driven by k random leader sets
selects the globally better policy — as a function of k for several
values of p (the fraction of sets favoring the winner).  This is
closed-form mathematics and reproduces the paper exactly.
"""

from __future__ import annotations

from repro.experiments.common import Report, no_cells
from repro.sbar.sampling_model import leaders_needed, probability_best_policy

P_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9)
LEADER_COUNTS = (1, 2, 4, 8, 16, 32, 64)


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure8", "Figure 8: P(Best) vs number of leader sets (analytical)"
    )
    rows = []
    for k in LEADER_COUNTS:
        rows.append(
            [k]
            + ["%.3f" % probability_best_policy(k, p) for p in P_VALUES]
        )
    report.add_table(
        ["leader sets"] + ["p=%.1f" % p for p in P_VALUES], rows
    )
    needed_rows = [
        (
            "p=%.2f" % p,
            leaders_needed(p, target=0.95),
        )
        for p in (0.6, 0.7, 0.74, 0.8, 0.9, 0.99)
    ]
    report.add_note(
        "Leader sets needed for P(Best) >= 95% (the paper measures p\n"
        "between 0.74 and 0.99 across benchmarks, hence its conclusion\n"
        "that 16-32 leader sets suffice):"
    )
    report.add_table(["p", "leaders for 95%"], needed_rows)
    return report
