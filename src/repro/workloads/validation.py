"""Surrogate calibration validation.

The surrogates are tuned to the paper's published fingerprints; this
module makes the tuning contract executable.  For every benchmark it
checks, against the ``PAPER_*`` reference data:

* the **sign** of the LIN(4) IPC effect (win / loss / neutral),
* SBAR's contract (keeps wins, bounds losses),
* the Table 1 separation (losers' average delta far above winners'),

and reports per-benchmark fidelity scores.  The paper-claims test
suite asserts the hard requirements; ``python -m repro.experiments
calibration`` prints the full scorecard for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.runner import ipc_improvement, miss_change, run_policy
from repro.sim.stats import SimResult
from repro.workloads.spec2000 import PAPER_FIG5, PAPER_FIG9_SBAR, PAPER_TABLE1

#: |IPC effect| below this is treated as "neutral" when comparing signs.
NEUTRAL_BAND = 1.5

#: A benchmark's scored runs: the baseline, LIN(4) and SBAR.
POLICIES = ("lru", "lin(4)", "sbar")


@dataclass(frozen=True)
class BenchmarkFidelity:
    """Fidelity of one surrogate against the paper's fingerprint."""

    benchmark: str
    lin_ipc_measured: float
    lin_ipc_paper: float
    lin_miss_measured: float
    lin_miss_paper: float
    sbar_ipc_measured: float
    sbar_ipc_paper: float
    delta_avg_measured: float

    @property
    def lin_sign_matches(self) -> bool:
        return _signs_compatible(self.lin_ipc_measured, self.lin_ipc_paper)

    @property
    def lin_magnitude_ratio(self) -> Optional[float]:
        """measured/paper effect size; None when the paper effect ~0."""
        if abs(self.lin_ipc_paper) < NEUTRAL_BAND:
            return None
        return self.lin_ipc_measured / self.lin_ipc_paper


def _signs_compatible(measured: float, paper: float) -> bool:
    if abs(paper) < NEUTRAL_BAND or abs(measured) < NEUTRAL_BAND:
        # A small effect on either side counts as neutral-compatible
        # only if the other side is also smallish.
        return abs(paper) < 6.0 and abs(measured) < 6.0 or (
            measured * paper > 0
        )
    return measured * paper > 0


def score_benchmark(
    benchmark: str, baseline: SimResult, lin: SimResult, sbar: SimResult
) -> BenchmarkFidelity:
    """Score one surrogate from its LRU, LIN(4) and SBAR results."""
    return BenchmarkFidelity(
        benchmark=benchmark,
        lin_ipc_measured=ipc_improvement(lin, baseline),
        lin_ipc_paper=PAPER_FIG5[benchmark][1],
        lin_miss_measured=miss_change(lin, baseline),
        lin_miss_paper=PAPER_FIG5[benchmark][0],
        sbar_ipc_measured=ipc_improvement(sbar, baseline),
        sbar_ipc_paper=PAPER_FIG9_SBAR[benchmark],
        delta_avg_measured=baseline.delta_summary.average,
    )


def validate_benchmark(
    benchmark: str, scale: Optional[float] = None
) -> BenchmarkFidelity:
    """Run LRU/LIN/SBAR for one surrogate and score it."""
    return score_benchmark(benchmark, *(
        run_policy(benchmark, policy, scale=scale) for policy in POLICIES
    ))


def delta_separation(results: Sequence[BenchmarkFidelity]) -> float:
    """Losers' minimum average delta minus winners' maximum.

    Positive = the Table 1 causal story holds: every LIN-regression
    benchmark has a larger average delta than every LIN-win benchmark.
    """
    losers = [
        r.delta_avg_measured for r in results if r.lin_ipc_paper < -NEUTRAL_BAND
    ]
    winners = [
        r.delta_avg_measured for r in results if r.lin_ipc_paper > NEUTRAL_BAND
    ]
    if not losers or not winners:
        return 0.0
    return min(losers) - max(winners)


def paper_delta_ordering_holds(benchmark: str, measured_avg: float) -> bool:
    """Coarse check of the Table 1 bucket story for one benchmark."""
    low, mid, high, paper_avg = PAPER_TABLE1[benchmark]
    paper_unpredictable = high >= 40 or (paper_avg or 0) >= 100
    measured_unpredictable = measured_avg >= 100
    return paper_unpredictable == measured_unpredictable
