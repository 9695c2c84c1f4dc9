"""Tests pinning down the compiled native replay kernel.

Two paths replay a trace: the hand-written C kernel
(``repro._native.replaykernel``, taken by ``kernel="auto"`` when every
gate holds) and the generic Python loop, the semantic reference.
Three contracts matter:

* **bit-exactness** — for every registered policy, a rand-dynamic SBAR
  that redraws its leaders, phase-sampled runs and runs with a stride
  prefetcher, the native kernel produces :class:`SimResult` payloads
  *and* controller/policy/prefetcher end states identical to the
  generic loop;
* **graceful degradation** — a run the kernel does not cover (or a
  host without the extension) takes the generic loop with identical
  results, and ``SimResult.meta["kernel_fallback"]`` names the first
  gate that failed;
* **cache neutrality** — the kernel never enters memo or store keys, a
  result computed under one kernel satisfies a request under the
  other, and ``SimResult.meta`` never leaks into digests or persisted
  payloads.

``tests/conftest.py`` builds the extension once per session when a
compiler is available, so these tests exercise the C kernel in tier-1;
the native-only ones skip on hosts that cannot build it.
"""

from __future__ import annotations

import json
import random
from array import array
from bisect import bisect_left
from itertools import accumulate

import pytest

from repro import obs
from repro.cache.block import BlockState
from repro.cache.deferred import RESTORE_ATTR, deferred
from repro.cache.replacement.lru import FIFOPolicy
from repro.cache.replacement.registry import available_policies
from repro.config import scaled_config
from repro.cpu.prefetch import StridePrefetcher
from repro.sbar.sbar import SBARController
from repro.sim import native
from repro.sim.runner import cache_stats, clear_cache, run_policy
from repro.sim.simulator import Simulator
from repro.trace.packed import pack_trace
from repro.trace.record import LOAD, STORE, Access
from repro.workloads import build_workload, experiment_config

from tests.fingerprints import STAGES, machine_fingerprint, provenance

#: Whether this host has the C extension (conftest builds it when a
#: compiler exists).  Without it every run takes the generic loop and
#: the differential battery degenerates to generic-vs-generic, which
#: still passes; ``test_native_really_runs`` is the guard.
HAVE_NATIVE = native.load_extension() is not None
needs_native = pytest.mark.skipif(not HAVE_NATIVE,
                                  reason="extension not built")

#: The kernel ``auto`` resolves to on this host.
AUTO_KERNEL = "native" if HAVE_NATIVE else "generic"

#: One spec per registered policy (lin and sbar at their defaults).
POLICIES = (
    "lru", "lin(4)", "sbar", "cbs-global", "cbs-local", "ehc", "awrp",
    "plru", "cost-plru", "lip", "bip", "dip", "tournament",
)


def _native_and_generic(trace, policy, config=None, prefetcher=None,
                        **kwargs):
    """Run ``policy`` on both kernels; returns the two simulators.

    ``prefetcher`` is a factory: each run gets its own prefetcher.
    """
    config = config or experiment_config()
    runs = []
    for kernel in ("auto", "generic"):
        spec = policy() if callable(policy) else policy
        if prefetcher is not None:
            kwargs["prefetcher"] = prefetcher()
        sim = Simulator(config, spec, kernel=kernel, **kwargs)
        sim.result = sim.run(trace)
        runs.append(sim)
    return runs


def _assert_identical(fast, generic, label):
    assert fast.replay_kernel == AUTO_KERNEL, label
    assert generic.replay_kernel == "generic", label
    assert fast.result.to_dict() == generic.result.to_dict(), label
    assert machine_fingerprint(fast) == machine_fingerprint(generic), label


class TestNativeDifferential:
    """Native against generic for every registered policy."""

    def test_every_registered_policy_is_covered(self):
        assert {spec.partition("(")[0] for spec in POLICIES} == set(
            available_policies()
        )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", ("mcf", "art"))
    def test_native_matches_generic(self, workload, policy):
        trace = build_workload(workload, scale=0.05)
        fast, generic = _native_and_generic(trace, policy)
        _assert_identical(fast, generic, (workload, policy))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_access_list_runs_native(self, policy):
        # Simulator.run packs a plain Access list on entry, so the list
        # reaches the kernel like the packed trace it came from.
        trace = build_workload("art", scale=0.02).to_accesses()
        fast, generic = _native_and_generic(trace, policy)
        _assert_identical(fast, generic, policy)

    def test_rand_dynamic_sbar_redraws_leaders(self):
        config = experiment_config()

        def controller():
            return SBARController(
                config.l2.n_sets, config.l2.associativity, n_leaders=8,
                selection="rand-dynamic", epoch_instructions=20_000,
                seed=11,
            )

        trace = build_workload("mcf", scale=0.05)
        fast, generic = _native_and_generic(trace, controller, config)
        _assert_identical(fast, generic, "rand-dynamic")
        # Enough epochs for several redraws, each with fresh leaders.
        assert generic.controller._epoch >= 3
        assert fast.controller.leaders != controller().leaders

    def test_registered_rand_dynamic_spec(self):
        trace = build_workload("art", scale=0.05)
        fast, generic = _native_and_generic(trace, "sbar(rand-dynamic,8)")
        _assert_identical(fast, generic, "sbar(rand-dynamic,8)")

    @pytest.mark.parametrize("policy", ("lru", "sbar", "tournament"))
    def test_phase_cuts_match_generic(self, policy):
        trace = build_workload("mcf", scale=0.05)
        fast, generic = _native_and_generic(trace, policy,
                                            phase_interval=5_000)
        _assert_identical(fast, generic, policy)
        assert len(fast.result.phases) > 3
        assert sum(p.misses for p in fast.result.phases) == (
            fast.result.demand_misses
        )

    def test_folded_zero_length_final_phase(self):
        # An interval equal to the last record's instruction index
        # makes that record open a zero-length phase, which _finalize
        # folds into the one before it.
        trace = build_workload("art", scale=0.05)
        interval = trace.total_instructions()
        fast, generic = _native_and_generic(trace, "lin(4)",
                                            phase_interval=interval)
        _assert_identical(fast, generic, "folded phase")
        (phase,) = fast.result.phases
        assert phase.end_instruction == interval
        assert phase.misses == fast.result.demand_misses

    @pytest.mark.parametrize("policy", POLICIES + ("sbar(rand-dynamic,8)",))
    @pytest.mark.parametrize("workload", ("mcf", "art"))
    def test_prefetcher_matches_generic(self, workload, policy):
        trace = build_workload(workload, scale=0.05)
        fast, generic = _native_and_generic(
            trace, policy, prefetcher=lambda: StridePrefetcher(degree=2)
        )
        _assert_identical(fast, generic, (workload, policy))
        assert generic.prefetches_issued > 0
        # Prefetch entries outlive the drain in MSHRFile._in_flight.
        assert generic.mshr._in_flight

    def test_prefetches_merge_and_bound_hits_under_miss(self):
        # The surrogates rarely touch a prefetch still in flight.  Six
        # interleaved strided streams that often step back, on a 32 KB
        # L2, do: demand hits on in-flight prefetched lines, prefetches
        # suppressed as resident or in flight, and (under LIN, which
        # evicts the zero-cost prefetched lines first) demand misses
        # that merge with a prefetch evicted in flight.
        trace = _strided_streams()
        merges = suppressed = 0
        for policy in POLICIES:
            fast, generic = _native_and_generic(
                trace, policy, scaled_config(32),
                prefetcher=lambda: StridePrefetcher(
                    degree=3, confidence_threshold=1
                ),
            )
            _assert_identical(fast, generic, policy)
            merges += generic.result.mshr_merges
            suppressed += generic.prefetch_hits_suppressed
        assert merges > 100
        assert suppressed > 100

    def test_prefetcher_with_phase_cuts(self):
        trace = build_workload("mcf", scale=0.05)
        fast, generic = _native_and_generic(
            trace, "lin(4)", prefetcher=lambda: StridePrefetcher(degree=2),
            phase_interval=5_000,
        )
        _assert_identical(fast, generic, "phased prefetch")
        assert len(fast.result.phases) > 3

    def test_small_prefetch_table_evicts_fifo(self, monkeypatch):
        # Few small regions and a low threshold: the table overflows
        # all the time, so the FIFO eviction order must match.
        evicted = []
        install = StridePrefetcher._install

        def counting_install(self, region, entry):
            if len(self._table) >= self.n_entries:
                evicted.append(self._order[0])
            install(self, region, entry)

        monkeypatch.setattr(StridePrefetcher, "_install", counting_install)
        trace = build_workload("mcf", scale=0.05)
        fast, generic = _native_and_generic(
            trace, "lin(4)",
            prefetcher=lambda: StridePrefetcher(
                n_entries=4, region_blocks=64, degree=3,
                confidence_threshold=1,
            ),
        )
        _assert_identical(fast, generic, "small table")
        assert len(evicted) > 100
        assert len(fast.prefetcher._order) == 4
        assert fast.prefetches_issued > 0

    @needs_native
    def test_native_really_runs(self):
        # Guard against the battery silently degenerating into
        # generic-vs-generic: with the extension, every registered
        # policy and a phase-sampled run resolve to the C kernel.
        trace = build_workload("mcf", scale=0.05)
        for policy in POLICIES + ("sbar(rand-dynamic,8)",):
            sim = Simulator(experiment_config(), policy)
            result = sim.run(trace)
            assert sim.replay_kernel == "native", policy
            assert provenance(result) == {"kernel_used": "native"}, policy
        sim = Simulator(experiment_config(), "lru", phase_interval=1000)
        sim.run(trace)
        assert sim.replay_kernel == "native"
        sim = Simulator(experiment_config(), "lru",
                        prefetcher=StridePrefetcher(degree=2))
        sim.run(trace)
        assert sim.replay_kernel == "native"


def _deferred_attributes(sim):
    """``(owner, attribute)`` for every container a native run defers."""
    held = [(sim.l1d, "_sets"), (sim.l1i, "_sets"), (sim.l2, "_sets"),
            (sim.l2, "_seen"), (sim.delta, "_last_cost")]
    policy = sim.l2.policy
    held += [
        (policy, name) for name in dir(type(policy))
        if isinstance(getattr(type(policy), name), deferred)
    ]
    for name in ("atd_lru", "atd_lin"):
        atd = getattr(sim.controller, name, None)
        if atd is not None:
            held.append((atd, "_sets"))
    return held


class TestDeferredEndState:
    """A native run's bulk end state stays flat until something reads it.

    One policy per kind of deferred container: the caches and the delta
    tracker always, EHC/AWRP/PLRU side tables, and SBAR's sparse and
    CBS's full ATDs.
    """

    POLICIES = ("lru", "ehc", "awrp", "cost-plru", "sbar", "cbs-local")

    @needs_native
    @pytest.mark.parametrize("policy", POLICIES)
    def test_first_read_restores_everything(self, policy, monkeypatch):
        built = []

        class CountedBlockState(BlockState):
            __slots__ = ()

            def __init__(self, block, fill_seq=0):
                built.append(block)
                super().__init__(block, fill_seq)

        monkeypatch.setattr(native, "BlockState", CountedBlockState)
        trace = build_workload("mcf", scale=0.05)
        sim = Simulator(experiment_config(), policy)
        sim.run(trace)
        assert sim.replay_kernel == "native"
        held = _deferred_attributes(sim)
        for owner, name in held:
            assert name not in vars(owner), (policy, name)
            assert RESTORE_ATTR in vars(owner), (policy, name)
        assert built == [], "a BlockState was built before any read"
        # Reading any one container restores all of them at once.
        owner, name = held[-1]
        getattr(owner, name)
        assert built
        for owner, name in held:
            assert name in vars(owner), (policy, name)
            assert RESTORE_ATTR not in vars(owner), (policy, name)
        generic = Simulator(experiment_config(), policy, kernel="generic")
        generic.run(trace)
        assert machine_fingerprint(sim) == machine_fingerprint(generic)

    @needs_native
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fresh_simulator_builds_no_sets(self, policy):
        sim = Simulator(experiment_config(), policy)
        owners = [sim.l1d, sim.l1i, sim.l2] + [
            getattr(sim.controller, name)
            for name in ("atd_lru", "atd_lin")
            if hasattr(sim.controller, name)
        ]
        for owner in owners:
            assert "_sets" not in vars(owner), (policy, owner)
        trace = build_workload("mcf", scale=0.05)
        sim.run(trace)
        assert sim.replay_kernel == "native"
        for owner in owners:
            assert "_sets" not in vars(owner), (policy, owner)
        sim.l2.set_state(0)  # one read restores every container
        generic = Simulator(experiment_config(), policy, kernel="generic")
        generic.run(trace)
        assert machine_fingerprint(sim) == machine_fingerprint(generic)

    @pytest.mark.parametrize("kernel", ("auto", "generic"))
    def test_runs_never_read_through_the_hook(self, kernel, monkeypatch):
        # No run restores an end state: the gate, the marshal and
        # _finalize read no deferred container.  The generic loop reads
        # tag sets through the hook only to build them fresh on first
        # use; a native run never reaches the hook at all.
        restores, reads = [], []
        original_restore = native._EndState.__call__
        original_get = deferred.__get__

        def counting_restore(self):
            restores.append(self)
            return original_restore(self)

        def counting_get(self, instance, owner=None):
            if instance is not None:
                reads.append(self.name)
            return original_get(self, instance, owner)

        monkeypatch.setattr(native._EndState, "__call__", counting_restore)
        monkeypatch.setattr(deferred, "__get__", counting_get)
        trace = build_workload("art", scale=0.05)
        kernels = set()
        for policy in self.POLICIES:
            sim = Simulator(experiment_config(), policy, kernel=kernel)
            sim.run(trace)
            kernels.add(sim.replay_kernel)
        assert restores == []
        if kernels == {"native"}:
            assert reads == []
        assert set(reads) <= {"_sets"}

    @needs_native
    def test_assignment_before_the_first_read_wins(self):
        # functools.cached_property semantics: a value set since the
        # run is kept; the restore fills only what is still missing.
        sim = Simulator(experiment_config(), "lru")
        sim.run(build_workload("art", scale=0.05))
        replacement = set()
        sim.l2._seen = replacement
        assert sim.l2._seen is replacement
        assert any(cache_set.ways for cache_set in sim.l2._sets)
        assert sim.l2._seen is replacement
        assert sim.delta._last_cost


class TestLadderDegradation:
    def test_missing_extension_falls_back_to_generic(self, monkeypatch):
        trace = build_workload("mcf", scale=0.05)
        reference = Simulator(experiment_config(), "sbar").run(trace)
        # Simulate a host whose optional build_ext found no compiler:
        # the import fails, load_extension caches None, and the run
        # takes the generic loop with identical results.
        monkeypatch.setattr(native, "_extension", None)
        sim = Simulator(experiment_config(), "sbar")
        degraded = sim.run(trace)
        assert sim.replay_kernel == "generic"
        assert degraded.meta["kernel_fallback"] == "extension not built"
        assert degraded.to_dict() == reference.to_dict()

    def test_unsupported_policy_falls_back(self):
        # A policy the kernel does not know degrades to the generic
        # loop rather than erroring, and says which policy it was.
        trace = build_workload("mcf", scale=0.05)
        sim = Simulator(experiment_config(), FIFOPolicy())
        result = sim.run(trace)
        assert sim.replay_kernel == "generic"
        assert result.meta["kernel_fallback"] == "policy FIFOPolicy"
        pinned = Simulator(
            experiment_config(), FIFOPolicy(), kernel="generic"
        ).run(trace)
        assert result.to_dict() == pinned.to_dict()


def _strided_streams(n=20_000, seed=5):
    """Loads and stores from six interleaved strided streams."""
    rng = random.Random(seed)
    streams = [[rng.randrange(1 << 14), rng.choice((1, 1, 2, 3, -1, -2))]
               for _ in range(6)]
    accesses = []
    for _ in range(n):
        stream = streams[rng.randrange(len(streams))]
        if rng.random() < 0.15:
            # step back behind the stream's head
            block = stream[0] - rng.randrange(1, 8) * stream[1]
        else:
            stream[0] = (stream[0] + stream[1]) % (1 << 14)
            block = stream[0]
        kind = STORE if rng.random() < 0.2 else LOAD
        accesses.append(Access(max(block, 0) * 64, kind,
                               rng.choice((0, 0, 1, 4))))
    return pack_trace(accesses)


def _wrong_path(trace):
    accesses = trace.to_accesses()
    accesses[3] = Access(accesses[3].address, accesses[3].kind,
                         accesses[3].gap, wrong_path=True)
    return pack_trace(accesses)


def _instrument_l2(sim):
    sim.l2.access = type(sim.l2).access.__get__(sim.l2)


def _seed_l2(sim):
    sim.l2._sets[0].insert_mru(BlockState(0, 0))


class _SubPrefetcher(StridePrefetcher):
    """A subclass may change any method; the kernel runs the base's."""


class TestFallbackReasons:
    """Every native gate lands on the generic loop and names itself."""

    CASES = {
        "observer": dict(kwargs={"observer": True}),
        "prefetcher _SubPrefetcher": dict(prefetcher=_SubPrefetcher),
        "prefetcher params": dict(
            prefetcher=lambda: StridePrefetcher(region_blocks=4096.0)
        ),
        "warmup": dict(kwargs={"warmup_instructions": 1000}),
        "wrong-path records": dict(trace=_wrong_path),
        "policy FIFOPolicy": dict(policy=FIFOPolicy),
        "instrumented l2": dict(prepare=_instrument_l2),
        "pre-seeded state": dict(prepare=_seed_l2),
        "kernel=generic": dict(kwargs={"kernel": "generic"}),
    }

    @pytest.mark.parametrize("reason", sorted(CASES))
    def test_gate_names_itself(self, reason):
        case = self.CASES[reason]
        trace = build_workload("art", scale=0.02)
        trace = case.get("trace", lambda t: t)(trace)
        kwargs = dict(case.get("kwargs", {}))
        if kwargs.pop("observer", False):
            kwargs["observer"] = obs.Observer(events=obs.MemoryEventTrace())
        if "prefetcher" in case:
            kwargs["prefetcher"] = case["prefetcher"]()
        policy = case.get("policy", lambda: "lru")()
        sim = Simulator(experiment_config(), policy, **kwargs)
        case.get("prepare", lambda sim: None)(sim)
        result = sim.run(trace)
        assert sim.replay_kernel == "generic"
        assert provenance(result) == {"kernel_used": "generic",
                                      "kernel_fallback": reason}
        assert "kernel_fallback" not in result.to_dict()

    @pytest.mark.parametrize("prepare", [
        # a table trained before the run
        lambda prefetcher: prefetcher.observe(12_345),
        # an instance-level hook on the class the kernel ports
        lambda prefetcher: setattr(prefetcher, "observe", lambda b: []),
    ], ids=["trained table", "instance hook"])
    def test_prefetcher_state_and_hooks_stay_generic(self, prepare):
        trace = build_workload("art", scale=0.02)
        runs = []
        for kernel in ("auto", "generic"):
            prefetcher = StridePrefetcher(degree=2)
            prepare(prefetcher)
            sim = Simulator(experiment_config(), "lru",
                            prefetcher=prefetcher, kernel=kernel)
            runs.append((sim, sim.run(trace)))
        (sim, result), (_, reference) = runs
        assert sim.replay_kernel == "generic"
        assert sim.kernel_fallback in ("pre-seeded state",
                                       "prefetcher StridePrefetcher")
        assert sim.kernel_fallback == (
            "pre-seeded state" if sim.prefetcher._table
            else "prefetcher StridePrefetcher"
        )
        assert result.to_dict() == reference.to_dict()

    def test_missing_extension_is_the_last_gate(self, monkeypatch):
        monkeypatch.setattr(native, "_extension", None)
        trace = build_workload("art", scale=0.02)
        assert native.fallback_reason(
            Simulator(experiment_config(), "lru"), trace
        ) == "extension not built"
        # A run the kernel could never take says so even here.
        assert native.fallback_reason(
            Simulator(experiment_config(), "lru", warmup_instructions=10),
            trace,
        ) == "warmup"

    @needs_native
    def test_native_run_has_no_fallback(self):
        sim = Simulator(experiment_config(), "lru")
        result = sim.run(build_workload("art", scale=0.02))
        assert sim.kernel_fallback is None
        assert "kernel_fallback" not in result.meta

    def test_negative_phase_interval_rejected(self):
        with pytest.raises(ValueError, match="phase interval"):
            Simulator(experiment_config(), "lru", phase_interval=-1000)


class TestMalformedParams:
    """The kernel rejects inconsistent params instead of crashing."""

    @staticmethod
    def _params(policy):
        trace = build_workload("art", scale=0.02)
        sim = Simulator(experiment_config(), policy)
        return native._build_params(sim, trace)

    @needs_native
    @pytest.mark.parametrize("policy,mutate", [
        ("lru", lambda p: p.update(policies=[])),
        ("lru", lambda p: p.update(policies=[(99, 0, 1, 0, 0, 0)])),
        ("bip", lambda p: p.update(policies=[(5, 0, 0, 0, 0, 0)])),
        ("lru", lambda p: p.update(policies=[(0, 0)])),
        ("lru", lambda p: p.update(phase_interval=-5)),
        ("sbar", lambda p: p.update(roles=None)),
        ("sbar", lambda p: p.update(roles=b"\x01")),
        ("sbar", lambda p: p.update(roles=b"\x07" * len(p["roles"]))),
        ("sbar", lambda p: p.update(epoch_starts=[10], epoch_roles=[])),
        ("sbar", lambda p: p.update(epoch_starts=[10], epoch_roles=[b"\x00"])),
        ("lru", lambda p: p.update(epoch_starts=[10],
                                   epoch_roles=[bytes(p["l2_n_sets"])])),
        ("dip", lambda p: p.update(policies=p["policies"][:1])),
        ("cbs-local", lambda p: p.update(psel_values=[0], psel_incs=[0],
                                         psel_decs=[0])),
        ("tournament", lambda p: p.update(t_scores=[0.0])),
    ])
    def test_rejected(self, policy, mutate):
        params = self._params(policy)
        mutate(params)
        with pytest.raises((ValueError, TypeError)):
            native.load_extension().replay(params)


class TestMalformedPrefetcherParams:
    """Out-of-range or mistyped prefetcher params raise, never crash."""

    @needs_native
    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(prefetcher=(0, 4096, 2, 2)),
        lambda p: p.update(prefetcher=(256, 0, 2, 2)),
        lambda p: p.update(prefetcher=(256, -4096, 2, 2)),
        lambda p: p.update(prefetcher=(256, 4096, 0, 2)),
        lambda p: p.update(prefetcher=(256, 4096, -2, 2)),
        lambda p: p.update(prefetcher=(256, 4096, 2.5, 2)),
        lambda p: p.update(prefetcher=("256", 4096, 2, 2)),
        lambda p: p.update(prefetcher=(256, 4096, 2)),
        lambda p: p.update(prefetcher=[256, 4096, 2, 2]),
        lambda p: p.update(prefetcher=(256, 4096, 2, 2**70)),
        lambda p: p.update(pf_predictions="0"),
        lambda p: p.update(pf_issued=None),
    ])
    def test_rejected(self, mutate):
        trace = build_workload("art", scale=0.02)
        sim = Simulator(experiment_config(), "lru",
                        prefetcher=StridePrefetcher(degree=2))
        params = native._build_params(sim, trace)
        assert params["prefetcher"] == (256, 4096, 2, 2)
        mutate(params)
        with pytest.raises((ValueError, TypeError)):
            native.load_extension().replay(params)


def _epoch_starts_reference(gaps, start_index, epoch_length, epoch):
    """Instruction indices at which the replay enters a new epoch.

    Record ``i`` dispatches at instruction ``start_index + sum(gaps[i']
    + 1 for i' <= i)``, strictly increasing since gaps are non-negative,
    and SBAR redraws whenever ``index // epoch_length`` differs from the
    current epoch.  One bisection per epoch reached, so a trace that
    leaps several epochs at once draws once, as the generic loop does.
    """
    dispatched = list(accumulate(map((1).__add__, gaps)))
    starts = []
    record = 0
    while record < len(dispatched):
        index = start_index + dispatched[record]
        if index // epoch_length != epoch:
            starts.append(index)
            epoch = index // epoch_length
        record = bisect_left(
            dispatched, (epoch + 1) * epoch_length - start_index, record + 1
        )
    return starts


@needs_native
class TestEpochStarts:
    """The kernel's ``epoch_starts`` against the Python reference."""

    @staticmethod
    def _both(gaps, start_index, epoch_length, epoch):
        native_starts = native.load_extension().epoch_starts(
            array("q", gaps), start_index, epoch_length, epoch
        )
        assert native_starts == _epoch_starts_reference(
            gaps, start_index, epoch_length, epoch
        )
        return native_starts

    @pytest.mark.parametrize("seed", range(40))
    def test_random_gap_columns(self, seed):
        rng = random.Random(seed)
        epoch_length = rng.choice((1, 2, 7, 50, 1000, 20_000))
        start_index = rng.randrange(0, 5 * epoch_length)
        # Mostly short gaps, some leaping several epochs at once.
        gaps = [
            rng.randrange(0, 4 * epoch_length) if rng.random() < 0.05
            else rng.randrange(0, 8)
            for _ in range(rng.randrange(0, 3000))
        ]
        self._both(gaps, start_index, epoch_length,
                   start_index // epoch_length)

    def test_start_offsets(self):
        gaps = [3] * 40
        for start_index in range(0, 30):
            self._both(gaps, start_index, 10, start_index // 10)

    def test_leap_over_several_epochs_draws_once(self):
        assert self._both([0, 95, 0], 0, 10, 0) == [97]

    def test_empty_trace(self):
        assert self._both([], 123, 10, 12) == []

    def test_never_leaves_its_epoch(self):
        assert self._both([0] * 99, 100, 1000, 0) == []

    def test_behind_the_current_epoch_enters_at_once(self):
        assert self._both([0, 0], 0, 10, 5) == [1]

    @pytest.mark.parametrize("args", [
        (array("q", [1]), 0, 0, 0),
        (array("q", [1]), 0, -10, 0),
        (b"\x00" * 7, 0, 10, 0),
        ([1, 2], 0, 10, 0),
    ])
    def test_rejected(self, args):
        with pytest.raises((ValueError, TypeError)):
            native.load_extension().epoch_starts(*args)


class TestKernelUsedMeta:
    def test_meta_records_resolved_rung(self):
        trace = build_workload("art", scale=0.05)
        expected = {
            "auto": {"kernel_used": AUTO_KERNEL},
            "generic": {"kernel_used": "generic",
                        "kernel_fallback": "kernel=generic"},
        }
        if not HAVE_NATIVE:
            expected["auto"]["kernel_fallback"] = "extension not built"
        for kernel, meta in expected.items():
            sim = Simulator(experiment_config(), "lru", kernel=kernel)
            assert provenance(sim.run(trace)) == meta, kernel

    def test_meta_excluded_from_digest_and_dict(self):
        trace = build_workload("art", scale=0.05)
        native_run = Simulator(experiment_config(), "lru").run(trace)
        generic_run = Simulator(
            experiment_config(), "lru", kernel="generic"
        ).run(trace)
        assert native_run.meta != generic_run.meta
        for run in (native_run, generic_run):
            assert "meta" not in run.to_dict()
            assert "kernel_used" not in run.to_dict()
            assert "kernel_fallback" not in run.to_dict()
        assert native_run.to_dict() == generic_run.to_dict()
        from repro.sim.store import result_digest

        assert (result_digest(native_run.to_dict())
                == result_digest(generic_run.to_dict()))


class TestStageTimers:
    def test_each_path_records_its_stages(self):
        trace = build_workload("art", scale=0.05)
        for kernel in ("auto", "generic"):
            sim = Simulator(experiment_config(), "sbar", kernel=kernel)
            stages = sim.run(trace).meta["stage_s"]
            assert set(stages) == STAGES[sim.replay_kernel], kernel
            assert all(seconds >= 0 for seconds in stages.values()), kernel
            assert sum(stages.values()) > 0, kernel

    def test_timers_stay_out_of_payloads_digests_and_keys(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        first = run_policy("art", "lru", scale=0.05)
        assert set(first.meta["stage_s"]) == STAGES[first.meta["kernel_used"]]
        payload = first.to_dict()
        assert "stage_s" not in json.dumps(payload)
        # The memo key ignores them: a repeat request is a memo hit.
        assert run_policy("art", "lru", scale=0.05) is first
        from repro.sim.store import default_store, result_digest

        paths = default_store().entry_paths()
        assert paths
        for path in paths:
            assert "stage_s" not in path.read_text()
        clear_cache()
        reloaded = run_policy("art", "lru", scale=0.05)
        assert reloaded.meta is None
        assert reloaded.to_dict() == payload
        # A fresh run times differently and hashes the same.
        rerun = Simulator(experiment_config(), "lru").run(
            build_workload("art", scale=0.05)
        )
        assert result_digest(rerun.to_dict()) == result_digest(payload)
        clear_cache()


class TestKernelNeverKeysCaches:
    """A result from the generic loop serves a request that takes
    ``auto``: the replay path never enters a memo or store key."""

    @staticmethod
    def _run_on_the_generic_loop(monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(native, "load_extension", lambda: None)
            result = run_policy("mcf", "lru", scale=0.05)
        assert provenance(result) == {
            "kernel_used": "generic", "kernel_fallback": "extension not built",
        }
        return result

    def test_memo_shared_across_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        clear_cache()
        first = self._run_on_the_generic_loop(monkeypatch)
        before = cache_stats()["memo_hits"]
        second = run_policy("mcf", "lru", scale=0.05)
        # One memo entry serves both requests: the auto request is a
        # hit on the generic run's result, object-identically.
        assert second is first
        assert cache_stats()["memo_hits"] == before + 1
        clear_cache()

    def test_store_shared_across_kernels(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        first = self._run_on_the_generic_loop(monkeypatch)
        # Drop the in-process memo so the second request must go to
        # the persistent store; a kernel-keyed store would miss here.
        clear_cache()
        from repro.sim.store import default_store

        before = default_store().counters()["store_hits"]
        second = run_policy("mcf", "lru", scale=0.05)
        assert default_store().counters()["store_hits"] == before + 1
        assert second.to_dict() == first.to_dict()
        # Provenance never persists: a store-loaded result carries no
        # meta, proving kernel_used/kernel_fallback stay off disk.
        assert second.meta is None
        clear_cache()
