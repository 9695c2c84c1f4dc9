"""Section 6.6: SBAR vs CBS-global vs CBS-local.

The paper reports that SBAR is within 1% of the better of CBS-global /
CBS-local everywhere except art (CBS-local wins by ~2%) and ammp
(CBS-global 20.3% vs SBAR 18.3%), while needing 64x fewer ATD entries.
CBS carries two full auxiliary directories, so this experiment is the
most expensive one; it defaults to a representative benchmark subset.
"""

from __future__ import annotations

from repro.config import CacheGeometry
from repro.experiments.common import (
    Report,
    fmt_pct,
    policy_cells,
    resolve_benchmarks,
)
from repro.sbar.overhead import cbs_overhead, sbar_overhead
from repro.sim.runner import ipc_improvement
from repro.workloads import experiment_config

DEFAULT_BENCHMARKS = ("art", "mcf", "ammp", "parser", "mgrid")

POLICIES = ("sbar", "cbs-global", "cbs-local")

cells = policy_cells(("lru",) + POLICIES, DEFAULT_BENCHMARKS)


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "cbs", "Section 6.6: SBAR vs CBS-global vs CBS-local"
    )
    rows = []
    for name in resolve_benchmarks(benchmarks, DEFAULT_BENCHMARKS):
        baseline, *others = (results[task] for task in cells(scale, [name]))
        row = [name]
        for result in others:
            row.append(fmt_pct(ipc_improvement(result, baseline)))
        rows.append(row)
    report.add_table(["benchmark"] + list(POLICIES), rows)

    geometry: CacheGeometry = experiment_config().l2
    sbar_bytes = sbar_overhead(geometry).total_bytes
    global_bytes = cbs_overhead(geometry, per_set_psel=False).total_bytes
    local_bytes = cbs_overhead(geometry, per_set_psel=True).total_bytes
    report.add_note(
        "Storage on this cache geometry: SBAR %.0f B, CBS-global %.0f B,\n"
        "CBS-local %.0f B (CBS needs ~%.0fx more ATD storage than SBAR)."
        % (sbar_bytes, global_bytes, local_bytes, global_bytes / sbar_bytes)
    )
    return report
