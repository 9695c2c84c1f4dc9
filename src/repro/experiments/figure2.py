"""Figure 2: distribution of mlp-cost under the baseline LRU policy.

For each benchmark the paper plots the share of misses per 60-cycle
mlp-cost bucket (the rightmost, open bucket at 420+ cycles holds the
isolated misses) plus the average cost as a dot on the axis.  This
experiment prints the same histogram per benchmark, rendered as text
bars.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    histogram_bar,
    policy_cells,
    resolve_benchmarks,
)
from repro.mlp.cost import QUANTIZATION_STEP
from repro.sim.runner import Task
from repro.sim.stats import N_COST_BINS

cells = policy_cells(("lru",))


def bucket_labels():
    labels = []
    for index in range(N_COST_BINS - 1):
        labels.append(
            "%d-%d" % (index * QUANTIZATION_STEP, (index + 1) * QUANTIZATION_STEP - 1)
        )
    labels.append("%d+" % ((N_COST_BINS - 1) * QUANTIZATION_STEP))
    return labels


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure2", "Figure 2: distribution of mlp-cost (baseline LRU)"
    )
    labels = bucket_labels()
    for name in resolve_benchmarks(benchmarks):
        result = results[Task(name, "lru", scale)]
        distribution = result.cost_distribution
        rows = []
        for label, percent in zip(labels, distribution.percentages):
            rows.append((label, "%.1f%%" % percent, histogram_bar(percent)))
        report.add_note(
            "%s  (avg mlp-cost = %.0f cycles, %d demand misses)"
            % (name, distribution.average, distribution.total)
        )
        report.add_table(["cycles", "misses", ""], rows, align_left=1)
    report.add_note(
        "Isolated misses land in the 420+ bucket (an isolated miss takes\n"
        "444 cycles on the Table 2 machine); deep bursts land on the left."
    )
    return report
