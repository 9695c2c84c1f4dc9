"""Calibration scorecard: how faithful is each surrogate to the paper?

Prints, for all 14 benchmarks, the measured-vs-paper LIN and SBAR
effects, whether the signs agree, the effect-size ratio, and the
Table 1 delta separation between LIN's winners and losers.  This is
the executable form of the tuning contract in docs/workloads.md.
"""

from __future__ import annotations

from repro.experiments.common import (
    Report,
    fmt_pct,
    policy_cells,
    resolve_benchmarks,
)
from repro.workloads.validation import (
    POLICIES,
    delta_separation,
    score_benchmark,
)

cells = policy_cells(POLICIES)


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "calibration", "Calibration scorecard: surrogates vs the paper"
    )
    fidelities = [
        score_benchmark(name, *(results[t] for t in cells(scale, [name])))
        for name in resolve_benchmarks(benchmarks)
    ]
    rows = []
    sign_matches = 0
    for fidelity in fidelities:
        if fidelity.lin_sign_matches:
            sign_matches += 1
        ratio = fidelity.lin_magnitude_ratio
        rows.append(
            (
                fidelity.benchmark,
                fmt_pct(fidelity.lin_ipc_measured),
                fmt_pct(fidelity.lin_ipc_paper),
                "yes" if fidelity.lin_sign_matches else "NO",
                "%.1fx" % ratio if ratio is not None else "-",
                fmt_pct(fidelity.sbar_ipc_measured),
                fmt_pct(fidelity.sbar_ipc_paper),
                "%.0f" % fidelity.delta_avg_measured,
            )
        )
    report.add_table(
        [
            "benchmark", "LIN", "paper", "sign", "ratio",
            "SBAR", "paper", "avg delta",
        ],
        rows,
    )
    separation = delta_separation(fidelities)
    report.add_note(
        "LIN sign agreement: %d/%d benchmarks.\n"
        "Table 1 separation (losers' min avg delta - winners' max): "
        "%+.0f cycles %s"
        % (
            sign_matches,
            len(fidelities),
            separation,
            "(causal story holds)" if separation > 0 else "(violated!)",
        )
    )
    return report
