"""Offline Belady (OPT) and cost-weighted OPT lower bounds.

The simulator can compare policies against each other, but "LIN beats
LRU" is unanchored without the optimum.  This module replays any trace
through an *offline* oracle and reports two floors:

* ``opt_misses`` — the demand-miss count of per-set Belady OPT (evict
  the resident block reused farthest in the future) over the
  L2-visible reference stream.  No online policy managing the same
  geometry can miss less.
* ``cost_opt_stall_cycles`` — a conservative stall-cycle floor derived
  from the *cost-weighted* OPT schedule (evict the block whose next
  miss would be cheapest under the quantized mlp-cost model), i.e. the
  paper's point that misses and stalls are different objectives, made
  into a measurable bound.

**Why the oracle sees the L1-filtered stream.**  The L2 never observes
the raw program reference stream: the L1I/L1D absorb short-range reuse
(the Figure 1 analysis models this with :func:`collapse_consecutive`
for one-block L1s).  An OPT bound computed over the raw stream would
be incomparably *loose* (it would count L1 hits as L2 work), so the
oracle first replays the trace through plain-LRU L1s of the same
geometry the simulator uses and runs OPT over the resulting L2-visible
stream.  Wrong-path records pass through the filter too and may
install blocks (free warm-up, exactly as in the real machine) but
their misses are never counted.  The one deliberate divergence from
the full machine is inclusion: the oracle's filter never invalidates
L1 lines on L2 evictions, which only makes the L2-visible stream — and
therefore the bound — *smaller*.

**The stall floor.**  The window model hides at most
``window_size / issue_width`` cycles of a long-latency miss before the
128-entry window fills.  The oracle groups its schedule's unavoidable
load/ifetch misses into overlap chains (misses whose earliest possible
dispatch times fall within one isolated-miss latency of each other can
be serviced in parallel), charges each chain a single memory latency
minus the window-hiding allowance minus the chain's own dispatch span,
and clamps at zero.  Chains too close to the end of the trace to ever
fill the window contribute nothing.  Every term of that accounting is
deliberately generous to the machine — real runs also pay bus
occupancy, bank conflicts, MSHR pressure, and L1/L2 hit latencies the
floor ignores — so any simulated policy's ``stall_cycles`` sits above
it (``tests/test_oracle.py`` holds this as a property over random
traces and the ChampSim fixture).

**Two implementations.**  With the C extension built, the passes run
in one call into ``repro._native.replaykernel.oracle``
(``src/repro/_native/oracle.c``), which reads the packed columns in
place.  The Python passes below are the reference, and the fallback
when the extension is missing or the input is outside the C side's
domain (see :func:`_native_fields`).  Both return the same report,
floats bit for bit, so which one ran is not part of the store key.

Reports are cached in the persistent v4 result store under a key that
covers the trace's content digest, the machine config, and the code
version, so repeated ``--oracle`` suite runs are free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.replacement.belady import NEVER, next_use_distances
from repro.config import MachineConfig
from repro.mlp.cost import MAX_COST_Q, QUANTIZATION_STEP, quantize_cost
from repro.trace.packed import PackedTrace, pack_trace
from repro.trace.record import IFETCH, LOAD, STORE

#: Bump when the oracle algorithm or report shape changes; part of the
#: store key, so stale cached reports miss cleanly.
ORACLE_VERSION = 1


@dataclass
class OracleReport:
    """Offline lower bounds for one (trace, machine config) pair.

    ``opt_misses`` is the demand-miss floor; ``cost_opt_stall_cycles``
    is the stall-cycle floor (the smaller of the bounds computed from
    the plain-OPT and cost-weighted-OPT schedules, keeping it a
    conservative floor).  The remaining fields describe the L2-visible
    stream the bounds were computed over.
    """

    trace_digest: str
    instructions: int
    l2_accesses: int
    l2_demand_accesses: int
    compulsory_misses: int
    opt_misses: int
    opt_stall_cycles: float
    cost_opt_misses: int
    cost_opt_stall_cycles: float
    miss_clusters: int
    version: int = ORACLE_VERSION

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OracleReport":
        return cls(**data)


@dataclass
class _L2Stream:
    """The L2-visible reference stream after plain-LRU L1 filtering."""

    blocks: List[int] = field(default_factory=list)
    kinds: List[int] = field(default_factory=list)
    #: False for wrong-path accesses (free fills, never counted).
    demands: List[bool] = field(default_factory=list)
    #: Committed-instruction index at dispatch of each access.
    positions: List[int] = field(default_factory=list)
    instructions: int = 0


def _l1_filter(trace: PackedTrace, config: MachineConfig) -> _L2Stream:
    """Replay ``trace`` through plain-LRU L1s; return the L2 stream.

    Mirrors the simulator's routing — IFETCH through the L1I, loads and
    stores (write-allocate) through the L1D — without timing and
    without inclusion invalidations.
    """
    block_bits = config.block_bits
    out = _L2Stream()
    emit_block = out.blocks.append
    emit_kind = out.kinds.append
    emit_demand = out.demands.append
    emit_position = out.positions.append

    def make_l1(geometry):
        return [geometry.n_sets, geometry.associativity,
                [[] for _ in range(geometry.n_sets)]]

    l1i = make_l1(config.l1i)
    l1d = make_l1(config.l1d)
    position = 0
    for address, kind, gap, wrong_path in trace.iter_tuples():
        block = address >> block_bits
        if not wrong_path:
            position += gap + 1
        n_sets, assoc, sets = l1i if kind == IFETCH else l1d
        ways = sets[block % n_sets]
        if block in ways:
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            continue
        ways.insert(0, block)
        if len(ways) > assoc:
            ways.pop()
        emit_block(block)
        emit_kind(kind)
        emit_demand(not wrong_path)
        emit_position(position)
    out.instructions = position
    return out


def _estimated_costs(
    stream: _L2Stream, config: MachineConfig
) -> List[int]:
    """Quantized a-priori mlp-cost estimate per stream access.

    Accesses whose dispatch points fall within one window residency of
    each other *could* miss concurrently, so a miss inside a dense
    cluster is cheap (the isolated latency amortizes over the cluster,
    capped at the MSHR size) while an isolated miss costs the full
    latency — the offline analogue of Algorithm 1's accounting.
    Wrong-path accesses cost zero (their misses are never counted).
    """
    window = config.processor.window_size
    latency = float(config.memory.isolated_miss_latency)
    mshr = max(1, config.mshr.n_entries)
    positions = stream.positions
    demands = stream.demands
    costs = [0] * len(positions)
    cluster: List[int] = []
    cluster_end = None
    for index, position in enumerate(positions):
        if not demands[index]:
            continue
        if cluster_end is not None and position - cluster_end >= window:
            cost_q = quantize_cost(latency / min(len(cluster), mshr))
            for member in cluster:
                costs[member] = cost_q
            cluster = []
        cluster.append(index)
        cluster_end = position
    if cluster:
        cost_q = quantize_cost(latency / min(len(cluster), mshr))
        for member in cluster:
            costs[member] = cost_q
    return costs


def _replay_opt(
    stream: _L2Stream,
    config: MachineConfig,
    costs: Optional[List[int]] = None,
) -> Tuple[int, List[int]]:
    """Per-set OPT replay; returns (demand misses, miss stream indices).

    With ``costs`` the eviction rule is cost-weighted: evict the
    resident block whose next miss would be cheapest (never-reused and
    wrong-path refetches are free), breaking ties toward the farthest
    next use.  Without it the rule is plain Belady (farthest next use).
    """
    n_sets = config.l2.n_sets
    assoc = config.l2.associativity
    next_use = next_use_distances(stream.blocks)
    # Resident state per set: block -> next use (a stream index).
    sets: List[Dict[int, int]] = [dict() for _ in range(n_sets)]
    misses = 0
    miss_indices: List[int] = []
    demands = stream.demands
    for index, block in enumerate(stream.blocks):
        resident = sets[block % n_sets]
        use = next_use[index]
        if block in resident:
            resident[block] = use
            continue
        if demands[index]:
            misses += 1
            miss_indices.append(index)
        if len(resident) >= assoc:
            if costs is None:
                victim = max(resident, key=resident.__getitem__)
            else:
                victim = min(
                    resident,
                    key=lambda candidate: (
                        _refetch_cost(resident[candidate], costs),
                        -resident[candidate],
                    ),
                )
            del resident[victim]
        resident[block] = use
    return misses, miss_indices


def _refetch_cost(use: int, costs: List[int]) -> int:
    """Quantized cost of re-fetching a block next used at ``use``."""
    if use == NEVER:
        return 0
    return costs[use]


def _stall_bound(
    miss_indices: Sequence[int],
    stream: _L2Stream,
    config: MachineConfig,
) -> Tuple[float, int]:
    """Conservative stall-cycle floor for one oracle miss schedule.

    Two misses more than ``window_size`` instructions apart can never
    overlap: the instruction window cannot hold both, so the second is
    not even dispatched until the first completes and retires.  The
    floor therefore chains load/ifetch misses whose instruction
    positions fall within one window of each other and charges each
    chain a single isolated-miss latency, minus the window-hiding
    allowance (``window_size / issue_width`` cycles of dispatch the
    window absorbs before filling), minus the chain's own dispatch
    span, clamped at zero.  A chain within one window of the trace end
    may never block fetch (the window simply drains), so it contributes
    nothing.  Returns ``(stall_cycles, n_chains)``.
    """
    width = config.processor.issue_width
    window = config.processor.window_size
    latency = float(config.memory.isolated_miss_latency)
    hide = window / width
    positions = stream.positions
    kinds = stream.kinds
    instructions = stream.instructions

    stall = 0.0
    chains = 0
    first_position = last_position = None
    for index in miss_indices:
        if kinds[index] == STORE:
            # Store misses drain through the store buffer; they only
            # block fetch when the buffer fills, which the floor
            # conservatively ignores.
            continue
        position = positions[index]
        if first_position is None:
            first_position = last_position = position
            continue
        if position - last_position < window:
            last_position = position
            continue
        if instructions - last_position >= window:
            span = (last_position - first_position) / width
            stall += max(0.0, latency - hide - span)
            chains += 1
        first_position = last_position = position
    if first_position is not None and instructions - last_position >= window:
        span = (last_position - first_position) / width
        stall += max(0.0, latency - hide - span)
        chains += 1
    return stall, chains


def _reference_fields(
    trace: PackedTrace, config: MachineConfig
) -> Dict[str, object]:
    """The report's fields from the Python passes (the reference)."""
    stream = _l1_filter(trace, config)
    costs = _estimated_costs(stream, config)
    opt_misses, opt_miss_indices = _replay_opt(stream, config)
    cost_misses, cost_miss_indices = _replay_opt(stream, config, costs)
    opt_stall, _ = _stall_bound(opt_miss_indices, stream, config)
    cost_stall, chains = _stall_bound(cost_miss_indices, stream, config)

    seen: set = set()
    compulsory = 0
    for index, block in enumerate(stream.blocks):
        if block not in seen:
            seen.add(block)
            if stream.demands[index]:
                compulsory += 1

    return dict(
        instructions=stream.instructions,
        l2_accesses=len(stream.blocks),
        l2_demand_accesses=sum(1 for d in stream.demands if d),
        compulsory_misses=compulsory,
        opt_misses=opt_misses,
        opt_stall_cycles=opt_stall,
        cost_opt_misses=cost_misses,
        # The floor must sit under *every* policy, so take the smaller
        # of the two schedules' bounds.
        cost_opt_stall_cycles=min(opt_stall, cost_stall),
        miss_clusters=chains,
    )


#: Tri-state cache of the native ``oracle`` function: the sentinel
#: means "not probed yet", None means unavailable.  Tests set it to
#: None to force the Python passes.
_UNRESOLVED = object()
_oracle = _UNRESOLVED


def native_oracle():
    """The compiled ``oracle`` function, or None when unavailable."""
    global _oracle
    if _oracle is _UNRESOLVED:
        try:
            from repro._native.replaykernel import oracle
        except ImportError:
            oracle = None
        _oracle = oracle
    return _oracle


def _native_args(trace: PackedTrace, config: MachineConfig) -> tuple:
    """The native ``oracle`` call's arguments: columns in place."""
    processor = config.processor
    return (
        trace._addresses, trace._kinds, trace._gaps, trace._wrong_bits,
        config.block_bits,
        (config.l1i.n_sets, config.l1i.associativity),
        (config.l1d.n_sets, config.l1d.associativity),
        (config.l2.n_sets, config.l2.associativity),
        processor.window_size, processor.issue_width,
        float(config.memory.isolated_miss_latency),
        max(1, config.mshr.n_entries),
        float(QUANTIZATION_STEP), MAX_COST_Q,
        (LOAD, STORE, IFETCH),
    )


def _native_fields(
    trace: PackedTrace, config: MachineConfig
) -> Optional[Dict[str, object]]:
    """The report's fields from the C passes, or None to use Python.

    The C passes take machines with a positive window and issue width
    and a non-negative latency.  They raise OverflowError for a cache
    of more than 2**22 ways, and for a trace of 2**53 instructions or
    more (past that, Python's int / int true division and C's double
    division may round apart).
    """
    oracle = native_oracle()
    processor = config.processor
    if (oracle is None or processor.window_size < 1
            or processor.issue_width < 1
            or config.memory.isolated_miss_latency < 0):
        return None
    try:
        return oracle(*_native_args(trace, config))
    except OverflowError:
        return None


def oracle_store_key(trace_digest: str, config: MachineConfig) -> str:
    """Store key for one oracle report (content-addressed)."""
    from repro.sim.store import code_version

    fields = {
        "kind": "oracle_report",
        "version": ORACLE_VERSION,
        "trace": trace_digest,
        "config": asdict(config),
        "code": code_version(),
    }
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def oracle_report(
    trace,
    config: Optional[MachineConfig] = None,
    use_store: bool = True,
) -> OracleReport:
    """Compute (or load from the store) the oracle bounds for a trace.

    ``trace`` is a :class:`PackedTrace` or any ``Access`` sequence
    (packed on entry, so the report is keyed on a content digest).
    ``config`` defaults to :func:`repro.workloads.experiment_config`,
    matching :func:`repro.sim.runner.run_policy`.
    """
    from repro.sim.store import default_store

    if config is None:
        from repro.workloads import experiment_config

        config = experiment_config()
    trace = pack_trace(trace)
    digest = trace.content_digest()

    store = default_store() if use_store else None
    key = None
    if store is not None:
        key = oracle_store_key(digest, config)
        payload = store.load_payload(key)
        if payload is not None:
            try:
                return OracleReport.from_dict(payload)
            except TypeError:
                pass  # shape drift: recompute and overwrite

    fields = _native_fields(trace, config)
    if fields is None:
        fields = _reference_fields(trace, config)
    report = OracleReport(trace_digest=digest, **fields)
    if store is not None:
        store.save_payload(
            key, report.to_dict(), kind="oracle_report",
            trace_digest=digest,
        )
    return report


def annotate_result(result, report: OracleReport):
    """A copy of ``result`` carrying oracle bounds and regret fields.

    Regret is the policy's excess over the floor: ``miss_regret =
    demand_misses - opt_misses`` and ``stall_regret = stall_cycles -
    cost_opt_stall_cycles``.  Annotation never mutates the original —
    cached/stored results stay oracle-free.
    """
    from dataclasses import replace

    return replace(
        result,
        oracle_misses=report.opt_misses,
        oracle_stall_cycles=report.cost_opt_stall_cycles,
        miss_regret=result.demand_misses - report.opt_misses,
        stall_regret=result.stall_cycles - report.cost_opt_stall_cycles,
    )


__all__ = [
    "OracleReport",
    "oracle_report",
    "oracle_store_key",
    "annotate_result",
    "ORACLE_VERSION",
]
