"""Figure 3(b): quantization of mlp-cost into the 3-bit cost_q.

Mostly illustrative: prints the interval table and spot-checks the
boundary values used everywhere else in the reproduction.
"""

from __future__ import annotations

from repro.experiments.common import Report, no_cells
from repro.mlp.cost import MAX_COST_Q, QUANTIZATION_STEP, quantize_cost


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure3", "Figure 3(b): quantization of mlp-cost to 3-bit cost_q"
    )
    rows = []
    for cost_q in range(MAX_COST_Q + 1):
        low = cost_q * QUANTIZATION_STEP
        if cost_q < MAX_COST_Q:
            interval = "%d to %d cycles" % (low, low + QUANTIZATION_STEP - 1)
        else:
            interval = "%d+ cycles" % low
        rows.append((interval, cost_q))
    report.add_table(["computed mlp-cost", "cost_q"], rows)
    checks = [0, 59, 60, 444, 10_000]
    report.add_note(
        "Spot checks: "
        + ", ".join("%d -> %d" % (c, quantize_cost(c)) for c in checks)
    )
    return report
