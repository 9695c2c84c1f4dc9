"""Regret vs the offline oracle: how far is each policy from optimal?

The paper argues minimizing misses is not the same as minimizing
stalls; this experiment makes the gap measurable by anchoring every
policy to the offline bounds of :mod:`repro.analysis.oracle`:
``miss regret`` (demand misses above per-set Belady OPT) and ``stall
regret`` (stall cycles above the cost-weighted-OPT floor).  LRU, the
paper's LIN and SBAR, and the successor policies EHC (expected-hit-
count Belady approximation) and AWRP (adaptive weight ranking) are
refereed on the same matrix, so "LIN beats LRU" becomes "LIN closes
X% of LRU's distance to optimal".
"""

from __future__ import annotations

from repro.experiments.common import Report, policy_cells, resolve_benchmarks
from repro.sim.runner import packed_trace

DEFAULT_BENCHMARKS = ("art", "mcf", "twolf", "equake", "parser", "ammp")

POLICIES = ("lru", "lin(4)", "sbar", "ehc", "awrp")

cells = policy_cells(POLICIES, DEFAULT_BENCHMARKS)


def render(results, scale, benchmarks) -> Report:
    from repro.analysis.oracle import annotate_result, oracle_report

    report = Report(
        "oracle", "Regret vs offline OPT / cost-weighted OPT bounds"
    )
    miss_rows = []
    stall_rows = []
    for name in resolve_benchmarks(benchmarks, DEFAULT_BENCHMARKS):
        bounds = oracle_report(packed_trace(name, scale=scale))
        miss_row = [name, bounds.opt_misses]
        stall_row = [name, round(bounds.cost_opt_stall_cycles)]
        for task in cells(scale, [name]):
            annotated = annotate_result(results[task], bounds)
            miss_row.append(annotated.miss_regret)
            stall_row.append(round(annotated.stall_regret))
        miss_rows.append(miss_row)
        stall_rows.append(stall_row)

    report.add_note(
        "Miss regret: demand misses above the per-set Belady OPT bound\n"
        "computed over the L1-filtered reference stream (0 = optimal)."
    )
    report.add_table(
        ["benchmark", "OPT misses"] + list(POLICIES), miss_rows
    )
    report.add_note(
        "Stall regret: stall cycles above the cost-weighted-OPT floor\n"
        "(the floor charges each unavoidable miss chain one isolated\n"
        "miss latency minus what the instruction window can hide)."
    )
    report.add_table(
        ["benchmark", "stall floor"] + list(POLICIES), stall_rows
    )
    report.add_note(
        "Bounds and regret definitions: docs/policies.md; reproduce any\n"
        "row with python -m repro.sim.suite --oracle."
    )
    return report
