"""Native (C) replay kernel: gate, marshal, and write-back.

The compiled extension (``repro._native.replaykernel``, built by the
*optional* ``build_ext`` in setup.py) runs the whole replay loop —
window advance, L1 probe, MSHR sweep, L2 probe with every built-in
policy's victim choice and insertion, the SBAR/CBS/DIP/tournament
controllers, the stride prefetcher, bank/bus timing, cost quantization,
phase cuts — over the raw ``PackedTrace`` column buffers.  This module
is the pure-python shim around it:

* :func:`load_extension` resolves the extension once per process and
  caches the answer (``None`` when absent — a source checkout without
  ``make native``, or a host without a compiler).
* :func:`fallback_reason` names the first gate that keeps a run off
  the kernel (an observer, a prefetcher subclass, warm-up, wrong-path
  records, a policy the kernel does not know, ...), or returns None.
* :func:`try_replay` is called by ``Simulator._replay`` for every run
  not pinned to ``kernel="generic"``.  When every gate holds it
  marshals the initial scalar state into a flat params dict, invokes
  the kernel, and writes the returned end-of-run state back into the
  live Python objects — leaving the Simulator indistinguishable from
  one that ran the generic loop, bit for bit.  Otherwise it records
  the failed gate on the Simulator and touches nothing else.

The C kernel never sees a Python object graph: caches, the MSHR, heaps,
ATDs, policy side tables and the prefetcher's region table all start
empty (a Simulator runs exactly one trace, so they are pristine at
replay time — the gate verifies it).
Scalars and small queues come back as Python objects and are written
at once.  The bulk containers come back as flat bytes buffers and stay
that way until something reads one of them: the write-back takes them
out of their owners and :class:`~repro.cache.deferred.deferred` rebuilds
all of them on the first read (see :class:`_EndState`), so a run whose
caller only wants the :class:`~repro.sim.stats.SimResult` pays for
the replay alone.

The one source of randomness, rand-dynamic SBAR's leader draws, stays
in Python: the leaders depend only on the controller's RNG and on which
epochs the trace reaches, which the ``gaps`` column fixes, so they are
drawn here before the kernel runs.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import accumulate
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.cache.block import BlockState
from repro.cache.deferred import RESTORE_ATTR
from repro.cache.replacement import (
    AWRPPolicy,
    EHCPolicy,
    LINPolicy,
    LRUPolicy,
)
from repro.cache.replacement.belady import NEVER
from repro.cache.replacement.dip import BIPPolicy, DIPController, LIPPolicy
from repro.cache.replacement.plru import (
    CostAwareTreePLRUPolicy,
    TreePLRUPolicy,
    _TreeState,
)
from repro.cpu.prefetch import StridePrefetcher
from repro.memory.bus import SplitTransactionBus
from repro.memory.dram import DramBankArray
from repro.mlp.cost import MAX_COST_Q, QUANTIZATION_STEP
from repro.mlp.mshr import _Entry
from repro.sbar.cbs import CBSController
from repro.sbar.psel import PolicySelector
from repro.sbar.sbar import SBARController
from repro.sbar.tournament import TournamentController
from repro.sim.stats import PhaseSample
from repro.trace.record import IFETCH, STORE

#: Policy discriminants understood by the C kernel (keep in sync with
#: the ``POL_*`` enum in replaykernel.c).
_POLICY_KINDS = {
    LRUPolicy: 0,
    LINPolicy: 1,
    EHCPolicy: 2,
    AWRPPolicy: 3,
    LIPPolicy: 4,
    BIPPolicy: 5,
    TreePLRUPolicy: 6,
    CostAwareTreePLRUPolicy: 7,
}
_PLRU = (TreePLRUPolicy, CostAwareTreePLRUPolicy)
#: Tournament candidates the kernel runs: no per-block side tables.
_TOURNAMENT_KINDS = (LRUPolicy, LINPolicy, LIPPolicy, BIPPolicy)
#: Controller discriminants (``CTRL_*`` in replaykernel.c).
_CTRL_NONE, _CTRL_SBAR, _CTRL_CBS, _CTRL_DIP, _CTRL_TOURNAMENT = range(5)

#: Tri-state import cache: the sentinel means "not probed yet".  Tests
#: monkeypatch :func:`load_extension` itself (or set ``_extension``)
#: to exercise the no-extension fallback deterministically.
_UNRESOLVED = object()
_extension = _UNRESOLVED


def load_extension():
    """The compiled kernel module, or None when unavailable."""
    global _extension
    if _extension is _UNRESOLVED:
        try:
            from repro._native import replaykernel
        except ImportError:
            _extension = None
        else:
            _extension = replaykernel
    return _extension


def _plain_psel(psel) -> bool:
    return type(psel) is PolicySelector and psel.observer is None


def _controller_supported(controller) -> bool:
    """Whether the kernel implements this controller exactly."""
    if any(
        hook in controller.__dict__
        for hook in ("policy_for_set", "observe_access", "note_instructions")
    ):
        return False
    kind = type(controller)
    if kind in (SBARController, CBSController):
        if type(controller.lin) is not LINPolicy:
            return False
        if type(controller.lru) is not LRUPolicy:
            return False
    if kind is SBARController:
        atd = controller.atd_lru
        epoch = controller.epoch_instructions
        return (
            atd.is_plain()
            and type(atd.policy) is LRUPolicy
            and _plain_psel(controller.psel)
            and (not controller.needs_instruction_clock or epoch > 0)
        )
    if kind is CBSController:
        return (
            controller.atd_lru.is_plain()
            and controller.atd_lin.is_plain()
            and type(controller.atd_lru.policy) is LRUPolicy
            and type(controller.atd_lin.policy) is LINPolicy
            and controller.atd_lin.policy.lam == controller.lin.lam
            and all(_plain_psel(psel) for psel in controller._psels)
        )
    if kind is DIPController:
        return (
            type(controller.lru) is LRUPolicy
            and type(controller.bip) is BIPPolicy
            and _plain_psel(controller.psel)
        )
    if kind is TournamentController:
        policies = controller.policies
        return (
            controller.observer is None
            and len(policies) < 255
            and len({id(policy) for policy in policies}) == len(policies)
            and all(type(policy) in _TOURNAMENT_KINDS for policy in policies)
        )
    return False


def _policy_reason(sim) -> Optional[str]:
    """Why the L2 policy or controller keeps the run off the kernel."""
    l2 = sim.l2
    controller = sim.controller
    if controller is not None:
        if not _controller_supported(controller):
            return "policy %s" % type(controller).__name__
        return None
    policy = l2.policy
    associativity = l2.geometry.associativity
    if (
        l2.policy_selector is not None
        or type(policy) not in _POLICY_KINDS
        or (
            type(policy) in _PLRU
            and associativity & (associativity - 1) != 0
        )
    ):
        return "policy %s" % type(policy).__name__
    return None


#: StridePrefetcher methods an instance may not override (the kernel
#: runs the class's own).
_PREFETCHER_HOOKS = ("observe", "_install", "_region_of")


def _prefetcher_params(prefetcher) -> Tuple[int, int, int, int]:
    return (prefetcher.n_entries, prefetcher.region_blocks,
            prefetcher.degree, prefetcher.confidence_threshold)


def _prefetcher_reason(prefetcher) -> Optional[str]:
    """Why the prefetcher keeps the run off the kernel.

    The kernel ports :class:`StridePrefetcher` itself, with integer
    parameters it can replay exactly; anything else (a subclass, an
    instance hook, a float, a non-positive size or a value past int64,
    which the generic loop fails on or computes with in Python)
    stays generic.
    """
    if type(prefetcher) is not StridePrefetcher or any(
        hook in vars(prefetcher) for hook in _PREFETCHER_HOOKS
    ):
        return "prefetcher %s" % type(prefetcher).__name__
    params = _prefetcher_params(prefetcher)
    if not all(
        type(value) is int and -2**63 <= value < 2**63 for value in params
    ) or min(params[:3]) < 1:
        return "prefetcher params"
    return None


def _sets_pristine(owner) -> bool:
    """Whether ``owner``'s tag sets are all empty; unbuilt ones are."""
    attrs = owner.__dict__
    if "_sets" not in attrs and RESTORE_ATTR not in attrs:
        return True
    sets = owner._sets
    if isinstance(sets, dict):
        sets = sets.values()
    return all(not cache_set.ways for cache_set in sets)


def _pristine(sim) -> bool:
    """Whether every container the kernel rebuilds is still empty.

    The kernel starts its machine empty and *continues from* the scalar
    counters, so pre-seeded tags or in-flight state must stay on the
    generic loop.
    """
    l2 = sim.l2
    mshr = sim.mshr
    policy = l2.policy
    controller = sim.controller
    if not (
        _sets_pristine(sim.l1d)
        and _sets_pristine(sim.l1i)
        and _sets_pristine(l2)
        and not (l2._seen or ())
        and not sim.phases
        and not sim.window._pending
        and not sim.store_buffer._completions
        and not mshr._demand_heap
        and not mshr._occupancy_heap
        and not mshr._in_flight
        and mshr._demand_live == 0
        and not sim.memory._in_flight
        and not sim.delta._last_cost
    ):
        return False
    kind = type(policy)
    if kind is EHCPolicy and (policy._last_seen or policy._intervals):
        return False
    if kind is AWRPPolicy and policy._counts:
        return False
    if kind in _PLRU and (policy._trees or policy._pending_slot):
        return False
    prefetcher = sim.prefetcher
    if prefetcher is not None and (prefetcher._table or prefetcher._order):
        return False
    if type(controller) is SBARController:
        return _sets_pristine(controller.atd_lru)
    if type(controller) is CBSController:
        return _sets_pristine(controller.atd_lru) and _sets_pristine(
            controller.atd_lin
        )
    return True


def fallback_reason(sim, trace) -> Optional[str]:
    """The first gate that keeps ``sim.run(trace)`` off the kernel.

    ``trace`` is the :class:`~repro.trace.packed.PackedTrace` that
    ``Simulator.run`` packed on entry.  None means the native kernel
    can replay the run bit-identically to the generic loop.  The checks
    run from the run's shape down to the host, so the reason stays
    informative on a host without the extension: a run with an observer
    reports ``"observer"`` there too.
    """
    memory = sim.memory
    if sim._obs is not None or any(
        component.observer is not None
        for component in (sim.l1d, sim.l1i, sim.l2, sim.mshr, memory)
    ):
        return "observer"
    for cache in (sim.l1d, sim.l1i, sim.l2):
        if "access" in cache.__dict__:
            return "instrumented %s" % cache.label
    for cache in (sim.l1d, sim.l1i):
        if (
            type(cache.policy) is not LRUPolicy
            or cache.policy_selector is not None
            or cache._seen is not None
        ):
            return "%s policy %s" % (cache.label, type(cache.policy).__name__)
    # One serializing bus keeps demand completions strictly increasing,
    # which is what lets the kernel's MSHR heap be a FIFO.
    bus = memory.bus
    if type(bus) is not SplitTransactionBus or bus.occupancy <= 0:
        return "bus %s" % type(bus).__name__
    if type(memory.banks) is not DramBankArray:
        return "banks %s" % type(memory.banks).__name__
    if sim.prefetcher is not None:
        reason = _prefetcher_reason(sim.prefetcher)
        if reason is not None:
            return reason
    if sim.warmup_instructions:
        return "warmup"
    if trace.wrong_path_count:
        return "wrong-path records"
    reason = _policy_reason(sim)
    if reason is not None:
        return reason
    if not _pristine(sim):
        return "pre-seeded state"
    if load_extension() is None:
        return "extension not built"
    return None


def _policy_tuple(policy) -> Tuple[int, int, int, int, int, int]:
    """``(kind, lam, bip period, bip fills, threshold, max rejects)``."""
    kind = type(policy)
    cost_plru = kind is CostAwareTreePLRUPolicy
    return (
        _POLICY_KINDS[kind],
        policy.lam if kind is LINPolicy else 0,
        policy.period if kind is BIPPolicy else 1,
        policy._fills if kind is BIPPolicy else 0,
        policy.protect_threshold if cost_plru else 0,
        policy.max_rejects if cost_plru else 0,
    )


def _roles(n_sets: int, owners) -> bytes:
    """One byte per set from ``(set_index, role)`` pairs."""
    roles = bytearray(n_sets)
    for index, role in owners:
        # A leader outside the cache is never accessed, here or in the
        # generic loop.
        if 0 <= index < n_sets:
            roles[index] = role
    return bytes(roles)


def _controller_policies(controller) -> list:
    """The kernel's ``pols`` array for a controller (see replaykernel.c)."""
    kind = type(controller)
    if kind is DIPController:
        return [controller.lru, controller.bip]
    if kind is TournamentController:
        return list(controller.policies)
    return [controller.lin, controller.lru]


def _build_params(sim, trace) -> dict:
    """Flatten the Simulator's initial state into the kernel's dict."""
    config = sim.config
    window = sim.window
    l1d, l1i, l2 = sim.l1d, sim.l1i, sim.l2
    mshr = sim.mshr
    memory = sim.memory
    bus = memory.bus
    banks = memory.banks
    dist = sim.cost_distribution
    delta = sim.delta
    controller = sim.controller
    policy = l2.policy

    params = {
        # Raw column buffers: the array.array objects themselves — the
        # kernel reads them through the buffer protocol.
        "addresses": trace._addresses,
        "kinds": trace._kinds,
        "gaps": trace._gaps,
        "block_bits": config.block_bits,
        "ifetch_kind": IFETCH,
        "store_kind": STORE,
        # Window.
        "win_width": window.width,
        "win_size": window.window_size,
        "win_index": window._index,
        "win_time": window._time,
        "retire_cummax": window._retire_cummax,
        "final_completion": window.final_completion,
        "stall_cycles": window.stall_cycles,
        "stall_events": window.stall_events,
        "long_stalls": window.long_stalls,
        "long_stall_threshold": window.LONG_STALL_THRESHOLD,
        "phase_interval": sim.phase_interval or 0,
        # Store buffer.
        "sb_capacity": sim.store_buffer.capacity,
        "sb_full_stalls": sim.store_buffer.full_stalls,
        # Caches.
        "l1d_n_sets": l1d.n_sets,
        "l1d_assoc": l1d.geometry.associativity,
        "l1d_latency": l1d.hit_latency,
        "l1d_seq": l1d._seq,
        "l1d_accesses": l1d.accesses,
        "l1d_hits": l1d.hits,
        "l1d_misses": l1d.misses,
        "l1d_writebacks": l1d.writebacks,
        "l1i_n_sets": l1i.n_sets,
        "l1i_assoc": l1i.geometry.associativity,
        "l1i_latency": l1i.hit_latency,
        "l1i_seq": l1i._seq,
        "l1i_accesses": l1i.accesses,
        "l1i_hits": l1i.hits,
        "l1i_misses": l1i.misses,
        "l1i_writebacks": l1i.writebacks,
        "l2_n_sets": l2.n_sets,
        "l2_assoc": l2.geometry.associativity,
        "l2_latency": l2.hit_latency,
        "l2_seq": l2._seq,
        "l2_accesses": l2.accesses,
        "l2_hits": l2.hits,
        "l2_misses": l2.misses,
        "l2_writebacks": l2.writebacks,
        "l2_compulsory": l2.compulsory_misses,
        "track_seen": int(l2._seen is not None),
        "demand_ctr": sim.demand_misses,
        "compulsory_ctr": sim.compulsory_misses,
        # MSHR.
        "m_entries": mshr.n_entries,
        "n_adders": mshr.n_cost_adders,
        "m_now": mshr._now,
        "m_acc": mshr._accumulator,
        "m_allocations": mshr.allocations,
        "m_merges": mshr.merges,
        "m_full_stalls": mshr.full_stalls,
        "m_peak": mshr.peak_occupancy,
        # Memory.
        "memory_max": memory.max_outstanding,
        "mem_requests": memory.requests,
        "mem_writebacks": memory.writebacks,
        "mem_queueing": memory.queueing_stalls,
        "mem_peak": memory.peak_in_flight,
        "bus_occupancy": bus.occupancy,
        "bus_transfer_delay": bus.transfer_delay,
        "bus_free": bus._free_at,
        "bus_contended": bus.contended,
        "bus_transfers": bus.transfers,
        "bank_latency": banks.access_latency,
        "bank_free": [float(v) for v in banks._bank_free],
        "bank_conflicts": banks.conflicts,
        "bank_accesses": banks.accesses,
        # Cost + delta.
        "qstep": float(QUANTIZATION_STEP),
        "max_q": MAX_COST_Q,
        "dist_counts": list(dist.counts),
        "dist_total": dist.total,
        "dist_cost_sum": dist.cost_sum,
        "delta_count": delta._count,
        "delta_sum": delta._sum,
        "delta_below": delta._below_60,
        "delta_mid": delta._60_to_119,
        "delta_high": delta._120_plus,
        # Policies: pols[0] is the fixed policy without a controller.
        "policies": [_policy_tuple(policy)],
        "ehc_horizon": 1,
        "ehc_pending": NEVER,
        "ehc_never": NEVER,
        "awrp_weight": 0.0,
        "awrp_fills": 0,
        # Controller.
        "controller_kind": _CTRL_NONE,
        "roles": None,
        "epoch_starts": [],
        "epoch_roles": [],
        "atd_assoc": 0,
        "atd_seq": 0,
        "atd_accesses": 0,
        "atd_hits": 0,
        "atd_misses": 0,
        "atd2_seq": 0,
        "atd2_accesses": 0,
        "atd2_hits": 0,
        "atd2_misses": 0,
        "cbs_local": 0,
        "psel_values": [],
        "psel_incs": [],
        "psel_decs": [],
        "psel_max": 0,
        "psel_msb": 0,
        "deferred": 0,
        "follower_lin": 0,
        "follower_lru": 0,
        "t_scores": [],
        "t_accesses": [],
        "t_decay": 1.0,
        # Prefetcher: None, or its parameter tuple plus live counters.
        "prefetcher": None,
        "pf_predictions": 0,
        "pf_trainings": 0,
        "pf_issued": sim.prefetches_issued,
        "pf_suppressed": sim.prefetch_hits_suppressed,
    }
    prefetcher = sim.prefetcher
    if prefetcher is not None:
        params.update(
            prefetcher=_prefetcher_params(prefetcher),
            pf_predictions=prefetcher.predictions,
            pf_trainings=prefetcher.trainings,
        )

    if controller is None:
        kind = type(policy)
        if kind is EHCPolicy:
            params["ehc_horizon"] = policy.horizon
            params["ehc_pending"] = policy._pending_next_use
        elif kind is AWRPPolicy:
            params["awrp_weight"] = policy.weight
            params["awrp_fills"] = policy._fills
        return params

    params["policies"] = [
        _policy_tuple(each) for each in _controller_policies(controller)
    ]
    params["deferred"] = controller.deferred_updates
    n_sets = l2.n_sets
    kind = type(controller)
    if kind is CBSController:
        psels = controller._psels
        atd_lru = controller.atd_lru
        atd_lin = controller.atd_lin
        params.update(
            controller_kind=_CTRL_CBS,
            atd_assoc=atd_lru.associativity,
            atd_seq=atd_lru._seq,
            atd_accesses=atd_lru.accesses,
            atd_hits=atd_lru.hits,
            atd_misses=atd_lru.misses,
            atd2_seq=atd_lin._seq,
            atd2_accesses=atd_lin.accesses,
            atd2_hits=atd_lin.hits,
            atd2_misses=atd_lin.misses,
            cbs_local=int(controller.scope == "local"),
        )
    elif kind is TournamentController:
        psels = []
        params.update(
            controller_kind=_CTRL_TOURNAMENT,
            roles=_roles(
                n_sets,
                (
                    (index, owner + 1)
                    for index, owner in controller._leader_owner.items()
                ),
            ),
            t_scores=list(controller._scores),
            t_accesses=list(controller._accesses),
            t_decay=controller.decay,
        )
    elif kind is DIPController:
        psels = [controller.psel]
        params.update(
            controller_kind=_CTRL_DIP,
            roles=_roles(
                n_sets,
                [(index, 1) for index in controller.lru_leaders]
                + [(index, 2) for index in controller.bip_leaders],
            ),
        )
    else:  # SBARController, per the gate
        psels = [controller.psel]
        atd = controller.atd_lru
        params.update(
            controller_kind=_CTRL_SBAR,
            roles=_roles(n_sets, ((index, 1) for index in controller.leaders)),
            atd_assoc=atd.associativity,
            atd_seq=atd._seq,
            atd_accesses=atd.accesses,
            atd_hits=atd.hits,
            atd_misses=atd.misses,
            follower_lin=controller.follower_lin_accesses,
            follower_lru=controller.follower_lru_accesses,
        )
    if psels:
        params.update(
            psel_values=[psel.value for psel in psels],
            psel_incs=[psel.increments for psel in psels],
            psel_decs=[psel.decrements for psel in psels],
            psel_max=psels[0].max_value,
            psel_msb=psels[0]._msb_threshold,
        )
    return params


def _predraw_epochs(sim, trace) -> Tuple[List[int], List[bytes]]:
    """Advance a rand-dynamic SBAR through every epoch the trace reaches.

    Calls ``note_instructions`` at each epoch's first instruction, in
    order, so the controller's RNG, leaders and fresh ATD end exactly
    where the generic loop leaves them; returns the epoch starts and
    each epoch's leader map for the kernel.
    """
    controller = sim.controller
    starts = load_extension().epoch_starts(
        trace._gaps,
        sim.window._index,
        controller.epoch_instructions,
        controller._epoch,
    )
    maps = []
    for index in starts:
        controller.note_instructions(index)
        leaders = controller.leaders
        maps.append(_roles(sim.l2.n_sets, ((leader, 1) for leader in leaders)))
    return starts, maps


#: Values per way in the kernel's flat tag-array dump: block, fill_seq,
#: next_use, cost_q, dirty (``WAY_FIELDS`` in replaykernel.c).
_WAY_FIELDS = 5


def _fill_sets(held: dict, buf: bytes, n_sets: int) -> None:
    """Fill an owner's empty ``_sets`` from a flat tag-array dump.

    ``buf`` holds every set's occupancy, then each resident way in set
    order, MRU first.  ``held["_sets"]`` holds the sets that exist in
    Python: a cache's list of all of them, or a sparse ATD's dict of
    its leader sets.
    """
    sets = held["_sets"]
    indexed_sets = sets.items() if isinstance(sets, dict) else enumerate(sets)
    fields = memoryview(buf).cast("q").tolist()
    offsets = list(accumulate(
        (length * _WAY_FIELDS for length in fields[:n_sets]), initial=n_sets
    ))
    for index, cache_set in indexed_sets:
        # A leader outside the cache is never accessed, here or in the
        # generic loop.
        if not 0 <= index < n_sets:
            continue
        ways = cache_set.ways
        by_block = cache_set._index
        for at in range(offsets[index], offsets[index + 1], _WAY_FIELDS):
            block = fields[at]
            state = BlockState(block, fields[at + 1])
            state.next_use = fields[at + 2]
            state.cost_q = fields[at + 3]
            state.dirty = bool(fields[at + 4])
            ways.append(state)
            by_block[block] = state


def _fill_pairs(mapping: dict, buf: bytes) -> None:
    """Fill a block -> int dict from flat (key, value) pairs."""
    view = memoryview(buf).cast("q")
    mapping.update(zip(view[::2], view[1::2]))


def _fill_last_cost(last_cost: dict, blocks: bytes, costs: bytes,
                    order: Optional[bytes] = None) -> None:
    """``DeltaTracker._last_cost``, in the generic loop's order.

    The kernel numbers blocks by first L2 miss.  Without a prefetcher
    every first miss allocates a demand fill that the drain services,
    so every id has a cost and first-completion order is id order.  A
    prefetch can be a block's first miss, so then ``order`` lists the
    ids that got a cost, in the order they first did.
    """
    blocks = memoryview(blocks).cast("q")
    costs = memoryview(costs).cast("d")
    if order is None:
        last_cost.update(zip(blocks, costs))
    else:
        last_cost.update(
            (blocks[index], costs[index])
            for index in memoryview(order).cast("i")
        )


def _fill_intervals(intervals: dict, buf: bytes, horizon: int) -> None:
    """EHC's per-block interval deques from (block, n, values...) runs."""
    fields = memoryview(buf).cast("q").tolist()
    at = 0
    while at < len(fields):
        count = fields[at + 1]
        intervals[fields[at]] = deque(
            fields[at + 2:at + 2 + count], maxlen=horizon
        )
        at += 2 + count


def _fill_trees(trees: dict, l2_held: dict, bits: bytes,
                associativity: int) -> None:
    """Tree-PLRU bits, keyed by ``id()`` of the rebuilt L2 sets.

    The generic loop builds a set's tree on its first fill, and L2 sets
    never shrink: exactly the non-empty sets have trees.
    """
    width = associativity - 1
    for index, cache_set in enumerate(l2_held["_sets"]):
        if cache_set.ways:
            tree = _TreeState(associativity)
            tree.bits = list(bits[index * width:(index + 1) * width])
            trees[id(cache_set)] = tree


class _EndState:
    """One native run's bulk end state, rebuilt on first read.

    :func:`_write_back` moves each bulk container out of its owner's
    ``__dict__`` (:meth:`hold`) and queues how to fill it from the
    kernel's buffers (:meth:`queue`).  The first read of any of them
    reaches this object through :class:`~repro.cache.deferred.deferred`;
    calling it runs every fill in order and hands all the containers
    back, so one read restores everything and the next reads are plain
    instance-dict hits again.  Owners are held by weak reference: a
    pending restore never keeps a machine alive or forms a reference
    cycle with it.
    """

    def __init__(self) -> None:
        self._owners: List[Tuple[weakref.ref, dict]] = []
        self._fills: List[Tuple[Callable, tuple]] = []

    def hold(self, owner, *names: str) -> dict:
        """Take ``names`` out of ``owner.__dict__``; returns them by name.

        A container the owner never built is held as None, and built
        (by its ``deferred`` factory) only when the restore runs; a
        fill that needs one is queued with this dict and reads it then.
        """
        attrs = owner.__dict__
        held = {name: attrs.pop(name, None) for name in names}
        attrs[RESTORE_ATTR] = self
        self._owners.append((weakref.ref(owner), held))
        return held

    def queue(self, fill: Callable, *args) -> None:
        self._fills.append((fill, args))

    def __call__(self) -> None:
        owners, self._owners = self._owners, []
        for ref, held in owners:
            owner = ref()
            for name, container in held.items():
                if container is None:
                    # Nothing can read a dead owner's container.
                    held[name] = () if owner is None else getattr(
                        type(owner), name
                    ).fresh(owner)
        fills, self._fills = self._fills, []
        for fill, args in fills:
            fill(*args)
        for ref, held in owners:
            owner = ref()
            if owner is None:
                continue
            attrs = owner.__dict__
            if attrs.get(RESTORE_ATTR) is self:
                del attrs[RESTORE_ATTR]
            # An attribute assigned since the run wins, as with
            # functools.cached_property.
            for name, container in held.items():
                attrs.setdefault(name, container)


def _defer_policy(end: _EndState, policy, out, l2_held: dict,
                  associativity: int) -> None:
    """Write one policy's scalars back and defer its side tables."""
    kind = type(policy)
    if kind in _PLRU:
        held = end.hold(policy, "_trees")
        end.queue(_fill_trees, held["_trees"], l2_held, out["plru_bits"],
                  associativity)
    elif kind is EHCPolicy:
        policy._pending_next_use = out["ehc_pending"]
        held = end.hold(policy, "_last_seen", "_intervals")
        end.queue(_fill_pairs, held["_last_seen"], out["ehc_last"])
        end.queue(_fill_intervals, held["_intervals"], out["ehc_intervals"],
                  policy.horizon)
    elif kind is AWRPPolicy:
        policy._fills = out["awrp_fills"]
        held = end.hold(policy, "_counts")
        end.queue(_fill_pairs, held["_counts"], out["awrp_counts"])


def _write_back_prefetcher(sim, out) -> None:
    """The region table (FIFO order) and every prefetch counter."""
    prefetcher = sim.prefetcher
    rows = memoryview(out["pf_table"]).cast("q").tolist()
    table = prefetcher._table
    for at in range(0, len(rows), 4):
        table[rows[at]] = (rows[at + 1], rows[at + 2], rows[at + 3])
    prefetcher._order[:] = rows[::4]
    prefetcher.predictions = out["pf_predictions"]
    prefetcher.trainings = out["pf_trainings"]
    sim.prefetches_issued = out["pf_issued"]
    sim.prefetch_hits_suppressed = out["pf_suppressed"]


def _write_back(sim, out) -> None:
    """Hand the kernel's end-of-run state back to the live objects.

    Every scalar and the small queues (the window's pending retires,
    the store-buffer and memory heaps, phases) are set here.  The bulk
    containers — L1/L2 and ATD tag sets, ``l2._seen``,
    ``delta._last_cost`` and the EHC/AWRP/PLRU side tables — are left
    as the kernel's flat buffers and rebuilt by one :class:`_EndState`
    the first time any of them is read.
    """
    window = sim.window
    window._index = out["win_index"]
    window._time = out["win_time"]
    window._retire_cummax = out["retire_cummax"]
    window.final_completion = out["final_completion"]
    window.stall_cycles = out["stall_cycles"]
    window.stall_events = out["stall_events"]
    window.long_stalls = out["long_stalls"]
    window._pending = deque(out["win_pending"])

    store_buffer = sim.store_buffer
    store_buffer.full_stalls = out["sb_full_stalls"]
    # A sorted list satisfies the heap invariant verbatim.
    store_buffer._completions = out["sb_completions"]

    end = _EndState()
    l2 = sim.l2
    for cache, prefix in ((sim.l1d, "l1d"), (sim.l1i, "l1i"), (l2, "l2")):
        cache._seq = out[prefix + "_seq"]
        cache.accesses = out[prefix + "_accesses"]
        cache.hits = out[prefix + "_hits"]
        cache.misses = out[prefix + "_misses"]
        cache.writebacks = out[prefix + "_writebacks"]
        if cache._seen is None:
            held = end.hold(cache, "_sets")
        else:
            held = end.hold(cache, "_sets", "_seen")
            end.queue(held["_seen"].update,
                      memoryview(out["id_blocks"]).cast("q"))
        end.queue(_fill_sets, held, out[prefix + "_sets"], cache.n_sets)
    l2_held = held  # the loop ends on the L2
    l2.compulsory_misses = out["l2_compulsory"]
    sim.demand_misses = out["demand_ctr"]
    sim.compulsory_misses = out["compulsory_ctr"]
    sim.phases[:] = [PhaseSample(*row) for row in out["phases"]]

    mshr = sim.mshr
    mshr._now = out["m_now"]
    mshr._accumulator = out["m_acc"]
    mshr._demand_live = out["m_live"]
    # Every allocation but a prefetch is a demand miss, which takes a
    # tiebreak; prefetch entries stay in _in_flight until looked up.
    prefetches = 0
    if sim.prefetcher is not None:
        prefetches = out["pf_issued"] - sim.prefetches_issued
        _write_back_prefetcher(sim, out)
    mshr._tiebreak += out["m_allocations"] - mshr.allocations - prefetches
    mshr._in_flight.update(
        (block, _Entry(block, issue, complete, False))
        for block, issue, complete in out["m_in_flight"]
    )
    mshr._occupancy_heap = out["m_occupancy"]
    mshr.allocations = out["m_allocations"]
    mshr.merges = out["m_merges"]
    mshr.full_stalls = out["m_full_stalls"]
    mshr.peak_occupancy = out["m_peak"]

    memory = sim.memory
    memory._in_flight = out["mem_in_flight"]
    memory.requests = out["mem_requests"]
    memory.writebacks = out["mem_writebacks"]
    memory.queueing_stalls = out["mem_queueing"]
    memory.peak_in_flight = out["mem_peak"]
    bus = memory.bus
    bus._free_at = out["bus_free"]
    bus.contended = out["bus_contended"]
    bus.transfers = out["bus_transfers"]
    banks = memory.banks
    banks._bank_free[:] = out["bank_free"]
    banks.conflicts = out["bank_conflicts"]
    banks.accesses = out["bank_accesses"]

    dist = sim.cost_distribution
    dist.counts[:] = out["dist_counts"]
    dist.total = out["dist_total"]
    dist.cost_sum = out["dist_cost_sum"]
    delta = sim.delta
    delta._count = out["delta_count"]
    delta._sum = out["delta_sum"]
    delta._below_60 = out["delta_below"]
    delta._60_to_119 = out["delta_mid"]
    delta._120_plus = out["delta_high"]
    held = end.hold(delta, "_last_cost")
    end.queue(_fill_last_cost, held["_last_cost"], out["id_blocks"],
              out["id_costs"], out.get("id_cost_order"))

    associativity = l2.geometry.associativity
    controller = sim.controller
    if controller is None:
        policies = [l2.policy]
    else:
        policies = _controller_policies(controller)
    for policy, fills in zip(policies, out["pol_fills"]):
        if type(policy) is BIPPolicy:
            policy._fills = fills
        _defer_policy(end, policy, out, l2_held, associativity)
    if controller is None:
        return
    controller.deferred_updates = out["deferred"]
    kind = type(controller)
    if kind is TournamentController:
        controller._scores[:] = out["t_scores"]
        controller._accesses[:] = out["t_accesses"]
        return
    if kind is CBSController:
        psels = controller._psels
        atds = ((controller.atd_lru, "atd"), (controller.atd_lin, "atd2"))
    else:
        psels = [controller.psel]
        atds = ((controller.atd_lru, "atd"),) if kind is SBARController else ()
    for atd, prefix in atds:
        atd._seq = out[prefix + "_seq"]
        atd.accesses = out[prefix + "_accesses"]
        atd.hits = out[prefix + "_hits"]
        atd.misses = out[prefix + "_misses"]
        end.queue(_fill_sets, end.hold(atd, "_sets"), out[prefix + "_sets"],
                  l2.n_sets)
    if kind is SBARController:
        controller.follower_lin_accesses = out["follower_lin"]
        controller.follower_lru_accesses = out["follower_lru"]
    for psel, value, incs, decs in zip(
        psels, out["psel_values"], out["psel_incs"], out["psel_decs"]
    ):
        psel.value = value
        psel.increments = incs
        psel.decrements = decs


def try_replay(sim, trace) -> bool:
    """Run the trace through the C kernel if every gate holds.

    Returns True when the kernel ran (the Simulator now holds the
    complete end-of-run state, phases included, with its bulk
    containers rebuilt on first read) and records the boundary's stage
    timers in ``sim.stage_s``; False when a gate failed, after
    recording it in ``sim.kernel_fallback``.
    """
    start = perf_counter()
    reason = fallback_reason(sim, trace)
    if reason is not None:
        sim.kernel_fallback = reason
        return False
    params = _build_params(sim, trace)
    # Only a rand-dynamic SBAR passes the gate with an epoch clock.
    if getattr(sim.controller, "needs_instruction_clock", False):
        params["epoch_starts"], params["epoch_roles"] = _predraw_epochs(
            sim, trace
        )
    called = perf_counter()
    out = load_extension().replay(params)
    returned = perf_counter()
    # The drain leaves no demand miss in flight (only prefetches, which
    # no sweep removes), and every pre-drawn epoch is entered, by
    # construction; anything else means the C machine diverged, which
    # must never be written back silently.
    if sim.prefetcher is None and out["m_in_flight"]:
        raise AssertionError(
            "native kernel left %d MSHR entries in flight"
            % len(out["m_in_flight"])
        )
    if out.get("epochs_entered", 0) != len(params["epoch_starts"]):
        raise AssertionError(
            "native kernel entered %d of %d epochs"
            % (out["epochs_entered"], len(params["epoch_starts"]))
        )
    _write_back(sim, out)
    sim.replay_kernel = "native"
    sim.kernel_fallback = None
    kernel, emit = out["kernel_s"], out["emit_s"]
    sim.stage_s = {
        # The gate and params dict, plus the kernel's own parsing,
        # allocation and teardown around the loop and the emit.
        "marshal": (called - start) + (returned - called - kernel - emit),
        "kernel": kernel,
        "emit": emit,
        "write_back": perf_counter() - returned,
    }
    return True
