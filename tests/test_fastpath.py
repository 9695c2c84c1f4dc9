"""Tests pinning down the optimized simulation kernel.

The speed of a run rests on three load-bearing invariants:

* ``CacheSet._index[state.block] is state`` for exactly the entries in
  ``ways`` (the dict-backed residency index);
* the ``try_hit``/``hit_fast`` L1 hit probe applies byte-for-byte the
  same side effects as the generic ``access``;
* the native replay kernel (``kernel="auto"`` on a host with the
  compiled extension) produces bit-identical :class:`SimResult`
  payloads, and an identical machine end state (see
  :func:`machine_fingerprint`), to the generic loop
  (``kernel="generic"``).
"""

import random

import pytest

from repro import obs
from repro.cache.block import BlockState
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.sets import CacheSet
from repro.config import CacheGeometry, scaled_config
from repro.sim import native
from repro.sim.simulator import Simulator
from repro.trace.packed import pack_trace
from repro.trace.record import Access
from repro.workloads import build_workload, experiment_config

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


class TestCacheSetIndex:
    def test_randomized_ops_keep_index_coherent(self):
        rng = random.Random(20060617)
        cache_set = CacheSet(8)
        reference = []  # mirror of ways maintained with plain list ops
        next_block = 0
        for _ in range(5000):
            op = rng.randrange(6)
            if op == 0 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                cache_set.insert_mru(state)
                reference.insert(0, state)
            elif op == 1 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                cache_set.insert_lru(state)
                reference.append(state)
            elif op == 2 and len(reference) < 8:
                state = BlockState(next_block, next_block)
                next_block += 1
                position = rng.randrange(len(reference) + 1)
                cache_set.insert_at(position, state)
                if position >= len(reference):
                    reference.append(state)
                else:
                    reference.insert(position, state)
            elif op == 3 and reference:
                position = rng.randrange(len(reference))
                assert cache_set.evict(position) is reference.pop(position)
            elif op == 4 and reference:
                position = rng.randrange(len(reference))
                state = cache_set.touch(position)
                assert state is reference.pop(position)
                reference.insert(0, state)
            elif op == 5:
                probe = rng.randrange(next_block + 1)
                expected = next(
                    (i for i, s in enumerate(reference) if s.block == probe),
                    -1,
                )
                assert cache_set.find(probe) == expected
                resident = cache_set.get(probe)
                if expected == -1:
                    assert resident is None
                else:
                    assert resident is reference[expected]
            assert cache_set.ways == reference
            assert cache_set.index_coherent()

    def test_cache_access_stream_keeps_every_set_coherent(self):
        rng = random.Random(7)
        cache = SetAssociativeCache(CacheGeometry(4096, 64, 4, 2), LRUPolicy())
        resident = set()
        for _ in range(3000):
            block = rng.randrange(200)
            if rng.random() < 0.1:
                assert cache.invalidate(block) == (block in resident)
                resident.discard(block)
            else:
                result = cache.access(block, is_write=rng.random() < 0.3)
                assert result.hit == (block in resident)
                resident.add(block)
                if result.victim_block is not None:
                    resident.discard(result.victim_block)
            assert cache.contains(block) == (block in resident)
        for set_index in range(cache.n_sets):
            assert cache.set_state(set_index).index_coherent()
        assert cache.resident_blocks() == resident


class TestFastPathProtocol:
    def _twin_caches(self):
        geometry = CacheGeometry(2048, 64, 4, 2)
        return (
            SetAssociativeCache(geometry, LRUPolicy()),
            SetAssociativeCache(geometry, LRUPolicy()),
        )

    def test_fast_path_matches_generic_access(self):
        # The generic loop's L1 protocol: hit_fast, then access on a
        # miss.  A miss must leave no trace before the access.
        fast, generic = self._twin_caches()
        assert fast.is_plain()
        rng = random.Random(42)
        for _ in range(4000):
            block = rng.randrange(96)
            is_write = rng.random() < 0.25
            expected = generic.access(block, is_write)
            if fast.hit_fast(block, is_write):
                assert expected.hit
                continue
            assert not expected.hit
            result = fast.access(block, is_write)
            assert not result.hit
            assert result.state.block == expected.state.block
            assert result.victim_block == expected.victim_block
            assert result.compulsory == expected.compulsory
        for field in ("accesses", "hits", "misses", "compulsory_misses",
                      "writebacks"):
            assert getattr(fast, field) == getattr(generic, field), field
        assert fast.resident_blocks() == generic.resident_blocks()
        for set_index in range(fast.n_sets):
            assert (fast.set_state(set_index).snapshot()
                    == generic.set_state(set_index).snapshot())

    def test_try_hit_declines_when_not_plain(self):
        cache, _ = self._twin_caches()
        cache.access(0)
        assert cache.try_hit(0)
        cache.policy_selector = lambda set_index: cache.policy
        assert not cache.is_plain()
        assert not cache.try_hit(0)  # declined, not a miss

    def test_instance_access_patch_disables_fast_path(self):
        cache, _ = self._twin_caches()
        assert cache.is_plain()
        # attach_classifier-style instrumentation rebinds the bound
        # method on the instance; the fast path must stand down.
        cache.access = SetAssociativeCache.access.__get__(cache)
        assert not cache.is_plain()


class TestFusedReplayDifferential:
    """Named for the retired fused loop; now the list-trace reference.

    A list of ``Access`` records always takes the generic loop; the
    same records packed take the native kernel.  Both must agree.
    """

    def test_fused_matches_generic_loop(self):
        trace = build_workload("mcf", 0.05).to_accesses()
        for policy in ("lru", "lin(4)", "sbar", "dip"):
            packed_sim = Simulator(experiment_config(), policy)
            packed = packed_sim.run(pack_trace(trace))
            assert packed_sim.replay_kernel == AUTO_KERNEL, policy
            list_sim = Simulator(experiment_config(), policy)
            on_list = list_sim.run(trace)
            assert list_sim.replay_kernel == "generic", policy
            assert list_sim.kernel_fallback == "not a PackedTrace", policy
            assert packed.to_dict() == on_list.to_dict(), policy
            assert (machine_fingerprint(packed_sim)
                    == machine_fingerprint(list_sim)), policy


class TestBatchedReplayDifferential:
    """Named for the retired batched kernel; now native vs generic.

    On a small machine (64 KB L2, so evictions dominate) the native
    kernel must reproduce the generic loop bit for bit, and every gate
    the kernel does not cover must land on the generic loop with the
    gate named in ``kernel_fallback``.
    """

    POLICIES = ("lru", "lin(4)", "sbar", "cbs-global", "ehc", "awrp")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_matches_fused_and_generic(self, policy):
        config = scaled_config(64)
        trace = pack_trace(build_workload("mcf", 0.05).to_accesses())
        fast_sim = Simulator(config, policy)
        fast = fast_sim.run(trace)
        assert fast_sim.replay_kernel == AUTO_KERNEL, policy
        generic_sim = Simulator(config, policy, kernel="generic")
        generic = generic_sim.run(trace)
        assert generic_sim.replay_kernel == "generic", policy
        assert generic_sim.kernel_fallback == "kernel=generic", policy
        assert fast.to_dict() == generic.to_dict(), policy
        assert (machine_fingerprint(fast_sim)
                == machine_fingerprint(generic_sim)), policy

    def test_list_trace_falls_back_to_fused(self):
        # Named for the retired fused rung: a list trace now takes the
        # generic loop and says why.
        sim = Simulator(experiment_config(), "lru")
        result = sim.run(build_workload("mcf", 0.05).to_accesses())
        assert sim.replay_kernel == "generic"
        assert provenance(result) == {"kernel_used": "generic",
                                      "kernel_fallback": "not a PackedTrace"}

    def test_wrong_path_records_fall_back_to_fused(self):
        trace = build_workload("mcf", 0.05).to_accesses()
        trace[3] = Access(trace[3].address, trace[3].kind, trace[3].gap,
                          wrong_path=True)
        sim = Simulator(experiment_config(), "lru")
        sim.run(pack_trace(trace))
        assert sim.replay_kernel == "generic"
        assert sim.kernel_fallback == "wrong-path records"

    def test_observer_forces_generic_loop_same_results(self):
        trace = pack_trace(build_workload("mcf", 0.05).to_accesses())
        observed_sim = Simulator(
            experiment_config(), "lru",
            observer=obs.Observer(events=obs.MemoryEventTrace()),
        )
        observed = observed_sim.run(trace)
        assert observed_sim.replay_kernel == "generic"
        assert observed_sim.kernel_fallback == "observer"
        fast_sim = Simulator(experiment_config(), "lru")
        fast = fast_sim.run(trace)
        assert fast_sim.replay_kernel == AUTO_KERNEL
        assert observed.to_dict() == fast.to_dict()

    def test_warmup_falls_back_to_fused(self):
        trace = pack_trace(build_workload("mcf", 0.05).to_accesses())
        warm_sim = Simulator(experiment_config(), "lru",
                             warmup_instructions=1000)
        warm = warm_sim.run(trace)
        assert warm_sim.replay_kernel == "generic"
        assert warm_sim.kernel_fallback == "warmup"
        pinned = Simulator(experiment_config(), "lru", kernel="generic",
                           warmup_instructions=1000).run(trace)
        assert warm.to_dict() == pinned.to_dict()

    def test_unknown_kernel_rejected(self):
        for kernel in ("vectorized", "batched", "fused", "native"):
            with pytest.raises(ValueError, match="kernel"):
                Simulator(experiment_config(), "lru", kernel=kernel)

    def test_kernel_never_changes_results_across_ladder(self):
        # One policy, both kernels: identical SimResult — the contract
        # that keeps `kernel` out of memo/store keys.
        trace = pack_trace(build_workload("art", 0.05).to_accesses())
        results = {
            kernel: Simulator(
                experiment_config(), "sbar", kernel=kernel
            ).run(trace).to_dict()
            for kernel in ("auto", "generic")
        }
        assert results["auto"] == results["generic"]


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


class TestDuelingFastPathDifferential:
    """SBAR/CBS on the native kernel against the generic per-call loop.

    Matrix: {sbar, cbs-local, cbs-global} × {packed trace, Access list}
    × {observer off, observer on} — results *and* controller state
    bit-identical.
    """

    DUELING = ("sbar", "cbs-local", "cbs-global")

    @staticmethod
    def _generic_run(policy, trace):
        sim = Simulator(experiment_config(), policy, kernel="generic")
        result = sim.run(trace)
        assert sim.replay_kernel == "generic"
        return sim, result

    @pytest.mark.parametrize("policy", DUELING)
    def test_fast_path_matches_generic(self, policy):
        trace = build_workload("mcf", 0.05).to_accesses()
        fast_sim = Simulator(experiment_config(), policy)
        fast = fast_sim.run(pack_trace(trace))
        assert fast_sim.replay_kernel == AUTO_KERNEL, policy
        generic_sim, generic = self._generic_run(policy, trace)
        assert fast.to_dict() == generic.to_dict(), policy
        assert (controller_fingerprint(fast_sim.controller)
                == controller_fingerprint(generic_sim.controller)), policy

    @pytest.mark.parametrize("policy", DUELING)
    def test_list_and_packed_traces_agree(self, policy):
        trace = build_workload("art", 0.05).to_accesses()
        on_list = Simulator(experiment_config(), policy).run(trace)
        on_packed = Simulator(experiment_config(), policy).run(
            pack_trace(trace)
        )
        assert on_list.to_dict() == on_packed.to_dict(), policy

    @pytest.mark.parametrize("policy", DUELING)
    def test_observer_forces_generic_loop_same_results(self, policy):
        trace = pack_trace(build_workload("mcf", 0.05).to_accesses())
        observed_sim = Simulator(
            experiment_config(), policy,
            observer=obs.Observer(events=obs.MemoryEventTrace()),
        )
        observed = observed_sim.run(trace)
        # An observer must keep the run off the native kernel...
        assert observed_sim.replay_kernel == "generic", policy
        assert observed_sim.kernel_fallback == "observer", policy
        plain_sim = Simulator(experiment_config(), policy)
        plain = plain_sim.run(trace)
        assert plain_sim.replay_kernel == AUTO_KERNEL, policy
        # ...without changing a single simulated number.
        assert observed.to_dict() == plain.to_dict(), policy
        assert (controller_fingerprint(observed_sim.controller)
                == controller_fingerprint(plain_sim.controller)), policy

    def test_patched_controller_declines_fast_path_but_matches(self):
        trace = build_workload("mcf", 0.05).to_accesses()
        patched_sim = Simulator(experiment_config(), "sbar")
        controller = patched_sim.controller
        # attach-style instrumentation rebinds the bound method on the
        # instance; the native kernel must stand down to the generic
        # loop, which calls the patched method.
        controller.observe_access = type(controller).observe_access.__get__(
            controller
        )
        patched = patched_sim.run(pack_trace(trace))
        assert patched_sim.replay_kernel == "generic"
        assert patched_sim.kernel_fallback == "policy SBARController"
        plain_sim = Simulator(experiment_config(), "sbar")
        plain = plain_sim.run(pack_trace(trace))
        assert patched.to_dict() == plain.to_dict()
        assert (controller_fingerprint(patched_sim.controller)
                == controller_fingerprint(plain_sim.controller))
