"""End-state fingerprints for native-vs-generic differential tests.

The native kernel must leave a :class:`~repro.sim.simulator.Simulator`
indistinguishable from one that ran the generic loop: equal
:class:`~repro.sim.stats.SimResult` payloads *and* an equal machine end
state.  :func:`machine_fingerprint` captures that end state; every
differential battery compares through this one copy.
"""

from repro.sim import native

#: The kernel ``auto`` resolves to on this host.
AUTO_KERNEL = "native" if native.load_extension() is not None else "generic"

#: The stage timers each path records in ``SimResult.meta["stage_s"]``.
STAGES = {
    "native": {"marshal", "kernel", "emit", "write_back"},
    "generic": {"replay"},
}


def provenance(result):
    """``result.meta`` without its stage timers, which are checked here.

    Timings differ run to run, so equality assertions on the rest of
    the provenance go through this.
    """
    meta = dict(result.meta)
    stages = meta.pop("stage_s")
    assert set(stages) == STAGES[meta["kernel_used"]], stages
    assert all(seconds >= 0 for seconds in stages.values()), stages
    return meta


def controller_fingerprint(controller):
    """Every externally visible dueling-controller counter.

    The native kernel must leave SBAR/CBS/DIP/tournament in *exactly*
    the state the generic loop leaves them in — not just produce equal
    SimResults — or a later epoch/report would diverge.
    """
    fingerprint = {"deferred_updates": controller.deferred_updates}
    for name in ("atd_lru", "atd_lin"):
        atd = getattr(controller, name, None)
        if atd is not None:
            fingerprint[name] = (
                atd.accesses, atd.hits, atd.misses, atd._seq,
                {index: atd.set_state(index).snapshot()
                 for index in sorted(atd._sets)},
            )
    psels = getattr(controller, "_psels", None)
    if psels is None and hasattr(controller, "psel"):
        psels = [controller.psel]
    fingerprint["psels"] = [
        (psel.value, psel.increments, psel.decrements)
        for psel in psels or ()
    ]
    for name in ("follower_lin_accesses", "follower_lru_accesses",
                 "leaders", "_epoch", "_scores", "_accesses"):
        if hasattr(controller, name):
            fingerprint[name] = getattr(controller, name)
    rng = getattr(controller, "_rng", None)
    if rng is not None:
        fingerprint["rng"] = rng.getstate()
    policies = getattr(controller, "policies", None)
    if policies is None:
        policies = [getattr(controller, name) for name in ("lin", "lru", "bip")
                    if hasattr(controller, name)]
    fingerprint["policies"] = [policy_fingerprint(p, None)
                               for p in policies]
    return fingerprint


def policy_fingerprint(policy, cache):
    """A policy's side state: BIP fill counts, PLRU tree bits, ..."""
    fingerprint = {"name": policy.name}
    for name in ("_fills", "_pending_next_use", "_last_seen", "_counts",
                 "_pending_slot"):
        if hasattr(policy, name):
            fingerprint[name] = getattr(policy, name)
    if hasattr(policy, "_intervals"):
        fingerprint["_intervals"] = {
            block: list(values) for block, values in policy._intervals.items()
        }
    if hasattr(policy, "_trees") and cache is not None:
        fingerprint["_trees"] = {
            index: policy._trees[id(cache_set)].bits
            for index, cache_set in enumerate(cache._sets)
            if id(cache_set) in policy._trees
        }
        assert len(fingerprint["_trees"]) == len(policy._trees)
    return fingerprint


def cache_fingerprint(cache):
    """A cache's counters, compulsory-miss set and ways, MRU first."""
    assert all(cache_set.index_coherent() for cache_set in cache._sets)
    return {
        "counters": (cache._seq, cache.accesses, cache.hits, cache.misses,
                     cache.compulsory_misses, cache.writebacks),
        "sets": [[(way.block, way.fill_seq, way.cost_q, way.dirty,
                   way.next_use) for way in cache_set.ways]
                 for cache_set in cache._sets],
        "seen": cache._seen,
    }


def machine_fingerprint(sim):
    """The whole end state of a run, as the native write-back restores it.

    Every cache, the delta tracker's last costs (in insertion order),
    the window, store buffer, MSHR (with the prefetch entries still in
    ``_in_flight``), memory, bus and banks, the prefetcher's region
    table (in FIFO order) and counters, plus controller and policy side
    state.  Heaps compare sorted: any valid heap pops the same sequence.
    """
    window = sim.window
    store_buffer = sim.store_buffer
    mshr = sim.mshr
    memory = sim.memory
    bus = memory.bus
    banks = memory.banks
    delta = sim.delta
    fingerprint = {
        "l1d": cache_fingerprint(sim.l1d),
        "l1i": cache_fingerprint(sim.l1i),
        "l2": cache_fingerprint(sim.l2),
        "delta": None if delta is None else (
            list(delta._last_cost.items()), delta._count, delta._sum,
            delta._below_60, delta._60_to_119, delta._120_plus,
        ),
        "window": (list(window._pending), window._index, window._time,
                   window._retire_cummax, window.final_completion,
                   window.stall_cycles, window.stall_events,
                   window.long_stalls),
        "store_buffer": (sorted(store_buffer._completions),
                         store_buffer.full_stalls),
        "mshr": (mshr._now, mshr._accumulator, mshr._demand_live,
                 mshr._tiebreak, sorted(mshr._occupancy_heap),
                 len(mshr._demand_heap),
                 sorted((block, entry.issue, entry.complete, entry.is_demand,
                         entry.accumulator_start, entry.cost)
                        for block, entry in mshr._in_flight.items()),
                 mshr.allocations, mshr.merges, mshr.full_stalls,
                 mshr.peak_occupancy),
        "memory": (sorted(memory._in_flight), memory.requests,
                   memory.writebacks, memory.queueing_stalls,
                   memory.peak_in_flight),
        "bus": (bus._free_at, bus.contended, bus.transfers),
        "banks": (list(banks._bank_free), banks.conflicts, banks.accesses),
        "policy": policy_fingerprint(sim.l2.policy, sim.l2),
        "prefetches": (sim.prefetches_issued, sim.prefetch_hits_suppressed),
    }
    prefetcher = sim.prefetcher
    if prefetcher is not None:
        fingerprint["prefetcher"] = (
            list(prefetcher._table.items()), list(prefetcher._order),
            prefetcher.predictions, prefetcher.trainings,
        )
    if sim.controller is not None:
        fingerprint["controller"] = controller_fingerprint(sim.controller)
    return fingerprint
