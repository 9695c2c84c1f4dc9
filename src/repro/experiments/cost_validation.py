"""Validation: summed mlp-cost vs measured stall time (Section 3 premise).

Algorithm 1 claims to attribute every memory-stall cycle to exactly
one miss.  If so, ``instructions/width + sum(mlp-costs)`` should
predict each run's cycle count.  This experiment checks the
first-order model against the simulator across the suite; agreement
within a few percent is what licenses the paper's use of mlp-cost as
the replacement metric (and PSEL's use of cost_q as a stall proxy).
"""

from __future__ import annotations

from repro.analysis.firstorder import predict_cycles
from repro.experiments.common import Report, policy_cells, resolve_benchmarks
from repro.sim.runner import Task
from repro.workloads import experiment_config

cells = policy_cells(("lru",))


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "costmodel",
        "Validation: first-order CPI model vs simulation (Section 3)",
    )
    width = experiment_config().processor.issue_width
    rows = []
    worst = 0.0
    for name in resolve_benchmarks(benchmarks):
        result = results[Task(name, "lru", scale)]
        breakdown = predict_cycles(result, issue_width=width)
        worst = max(worst, abs(breakdown.prediction_error))
        rows.append(
            (
                name,
                "%.3f" % breakdown.measured_cpi,
                "%.3f" % breakdown.predicted_cpi,
                "%+.1f%%" % (100 * breakdown.prediction_error),
                "%.0f%%" % (100 * breakdown.memory_stall_fraction),
            )
        )
    report.add_table(
        ["benchmark", "CPI (sim)", "CPI (model)", "error", "stall share"],
        rows,
    )
    report.add_note(
        "Worst-case model error: %.1f%%.  The residual comes from\n"
        "second-order effects the first-order model ignores: overlap of\n"
        "compute with the leading edge of each stall, store-buffer\n"
        "slack, and L2-hit latency that hides under the window."
        % (100 * worst)
    )
    return report
