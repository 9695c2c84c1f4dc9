"""Predictability of mlp-cost: the *delta* study of Table 1.

*delta* is the absolute difference between the mlp-cost of successive
misses to the same cache block.  Table 1 classifies deltas into three
buckets (< 60, 60-119, >= 120 cycles) and reports the average.  Small
deltas mean last-time cost predicts next-time cost — the property the
LIN policy relies on; benchmarks where it fails (bzip2, parser, mgrid,
average deltas of 126/109/187 cycles) are exactly where LIN degrades
performance (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.deferred import deferred


@dataclass(frozen=True)
class DeltaSummary:
    """Row of Table 1 for one benchmark."""

    n_deltas: int
    pct_below_60: float
    pct_60_to_119: float
    pct_120_plus: float
    average: float


class DeltaTracker:
    """Accumulates per-block cost history and classifies deltas.

    The paper computes deltas "by an off-line analysis of all the misses
    in the program"; feeding every serviced demand miss to
    :meth:`record` performs the same analysis online.
    """

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _last_cost = deferred()

    def __init__(self) -> None:
        self._last_cost: Dict[int, float] = {}
        self._count = 0
        self._sum = 0.0
        self._below_60 = 0
        self._60_to_119 = 0
        self._120_plus = 0

    def record(self, block: int, mlp_cost: float) -> None:
        """Register one serviced miss to ``block`` with its mlp-cost."""
        previous = self._last_cost.get(block)
        self._last_cost[block] = mlp_cost
        if previous is None:
            return
        delta = abs(mlp_cost - previous)
        self._count += 1
        self._sum += delta
        if delta < 60:
            self._below_60 += 1
        elif delta < 120:
            self._60_to_119 += 1
        else:
            self._120_plus += 1

    def summary(self) -> DeltaSummary:
        """The Table 1 row: bucket percentages and average delta."""
        if not self._count:
            return DeltaSummary(0, 0.0, 0.0, 0.0, 0.0)
        scale = 100.0 / self._count
        return DeltaSummary(
            n_deltas=self._count,
            pct_below_60=self._below_60 * scale,
            pct_60_to_119=self._60_to_119 * scale,
            pct_120_plus=self._120_plus * scale,
            average=self._sum / self._count,
        )

    @property
    def tracked_blocks(self) -> int:
        return len(self._last_cost)
