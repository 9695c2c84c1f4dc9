"""Simulation statistics and results.

Everything the paper's evaluation section reads off a run is collected
here: IPC, L2 demand misses and their mlp-cost distribution, the
Table 1 delta study, and the Figure 11 phase samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.mlp.cost import QUANTIZATION_STEP, quantize_cost
from repro.mlp.delta import DeltaSummary

N_COST_BINS = 8


@dataclass
class PhaseSample:
    """One Figure 11 sampling interval (10M instructions in the paper)."""

    start_instruction: int
    end_instruction: int = 0
    start_cycle: float = 0.0
    end_cycle: float = 0.0
    misses: int = 0
    cost_q_sum: int = 0
    cost_count: int = 0

    @property
    def instructions(self) -> int:
        return self.end_instruction - self.start_instruction

    @property
    def ipc(self) -> float:
        cycles = self.end_cycle - self.start_cycle
        if cycles <= 0:
            return 0.0
        return self.instructions / cycles

    @property
    def misses_per_1000(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    @property
    def avg_cost_q(self) -> float:
        if not self.cost_count:
            return 0.0
        return self.cost_q_sum / self.cost_count


class CostDistribution:
    """Histogram of mlp-cost over 60-cycle buckets (Figures 2 and 5)."""

    __slots__ = ("counts", "total", "cost_sum")

    def __init__(self) -> None:
        self.counts = [0] * N_COST_BINS
        self.total = 0
        self.cost_sum = 0.0

    def record(self, cost: float) -> None:
        bucket = int(cost // QUANTIZATION_STEP)
        if bucket >= N_COST_BINS:
            bucket = N_COST_BINS - 1
        self.counts[bucket] += 1
        self.total += 1
        self.cost_sum += cost

    @property
    def percentages(self) -> List[float]:
        if not self.total:
            return [0.0] * N_COST_BINS
        return [100.0 * count / self.total for count in self.counts]

    @property
    def average(self) -> float:
        if not self.total:
            return 0.0
        return self.cost_sum / self.total

    @property
    def pct_isolated(self) -> float:
        """Share of misses in the open 420+ bucket (isolated misses)."""
        if not self.total:
            return 0.0
        return 100.0 * self.counts[-1] / self.total

    def to_dict(self) -> Dict[str, object]:
        return {
            "counts": list(self.counts),
            "total": self.total,
            "cost_sum": self.cost_sum,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CostDistribution":
        distribution = cls()
        distribution.counts = [int(c) for c in data["counts"]]
        distribution.total = int(data["total"])
        distribution.cost_sum = float(data["cost_sum"])
        return distribution


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    #: Run provenance, attached by the simulator after every run:
    #: ``{"kernel_used": ...}``, on the generic loop
    #: ``"kernel_fallback"`` naming the native gate that failed, and
    #: ``"stage_s"``, seconds per replay stage (docs/observability.md).
    #: Deliberately an *unannotated* class attribute, not a dataclass
    #: field: ``asdict``/``to_dict`` skip it, so content digests, store
    #: keys, and ``from_dict`` round trips never see it — both kernels
    #: are bit-identical by contract, and which one ran is provenance,
    #: not content.  Results loaded from the store therefore carry
    #: None: the run that produced them is not this one.
    meta = None

    policy_name: str
    instructions: int
    cycles: float
    l2_accesses: int
    l2_misses: int
    demand_misses: int
    compulsory_misses: int
    stall_events: int
    stall_cycles: float
    long_stalls: int
    cost_distribution: CostDistribution
    delta_summary: DeltaSummary
    phases: List[PhaseSample] = field(default_factory=list)
    l1d_accesses: int = 0
    l1d_misses: int = 0
    mshr_merges: int = 0
    mshr_full_stalls: int = 0
    bank_conflicts: int = 0
    bus_contended: int = 0
    writebacks: int = 0
    psel_final: Optional[int] = None
    #: Telemetry snapshot (:func:`repro.obs.run_snapshot`)
    #: attached by the simulator when metrics are enabled; plain nested
    #: dicts, so ``to_dict``/``from_dict`` round-trip it unchanged.
    metrics: Optional[Dict[str, object]] = None
    #: Oracle bounds and regret, attached by the suite's ``--oracle``
    #: annotation pass (:func:`repro.analysis.oracle.annotate_result`),
    #: never by the simulator itself — stored/cached results stay
    #: oracle-free and these default to None.  ``miss_regret`` is
    #: ``demand_misses - oracle_misses`` (excess over per-set OPT);
    #: ``stall_regret`` is ``stall_cycles - oracle_stall_cycles``
    #: (excess over the cost-weighted-OPT stall floor).
    oracle_misses: Optional[int] = None
    oracle_stall_cycles: Optional[float] = None
    miss_regret: Optional[int] = None
    stall_regret: Optional[float] = None

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def mpki(self) -> float:
        """Demand misses per thousand instructions."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.demand_misses / self.instructions

    @property
    def compulsory_fraction(self) -> float:
        if not self.demand_misses:
            return 0.0
        return self.compulsory_misses / self.demand_misses

    @property
    def avg_mlp_cost(self) -> float:
        return self.cost_distribution.average

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; exact inverse of :meth:`from_dict`.

        Floats survive the round trip bit-identically (Python's json
        emits shortest-repr floats), which the persistent result store
        relies on for serial-vs-cached equality.
        """
        data = _field_values(self)
        data["cost_distribution"] = self.cost_distribution.to_dict()
        data["delta_summary"] = _field_values(self.delta_summary)
        data["phases"] = [_field_values(phase) for phase in self.phases]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        payload = dict(data)
        payload["cost_distribution"] = CostDistribution.from_dict(
            payload["cost_distribution"]
        )
        payload["delta_summary"] = DeltaSummary(**payload["delta_summary"])
        payload["phases"] = [
            PhaseSample(**phase) for phase in payload["phases"]
        ]
        return cls(**payload)

    def summary_line(self) -> str:
        return (
            "%-22s IPC=%.4f misses=%d (%.1f MPKI, %.1f%% compulsory) "
            "avg-cost=%.0f stalls=%d"
            % (
                self.policy_name,
                self.ipc,
                self.demand_misses,
                self.mpki,
                100.0 * self.compulsory_fraction,
                self.avg_mlp_cost,
                self.stall_events,
            )
        )


def _field_values(instance) -> Dict[str, object]:
    """A dataclass's fields by name, in order, not copied.

    :func:`dataclasses.asdict` deep-copies every value; the fields
    read here are scalars, or (``metrics``) a snapshot nothing mutates.
    """
    return {spec.name: getattr(instance, spec.name)
            for spec in fields(instance)}


__all__ = [
    "SimResult",
    "PhaseSample",
    "CostDistribution",
    "N_COST_BINS",
    "quantize_cost",
]
