"""The top-level simulator: trace in, :class:`SimResult` out.

The dataflow per access (Figure 3a of the paper):

1. The window model dispatches the access (applying any window-full
   stall caused by earlier long-latency misses).
2. The L1 (I or D) filters it; an L1 miss probes the L2 tag store.
3. An L2 demand miss allocates an MSHR entry and a memory-controller
   request; the Cost Calculation Logic (the MSHR's event-driven
   Algorithm 1 sweep) later reports the miss's mlp-cost, which is
   quantized and written into the L2 tag entry, fed to the Table 1
   delta tracker, and — under SBAR/CBS — applied to any pending PSEL
   update.
4. Loads and instruction fetches report their completion back to the
   window (future accesses may stall on it); stores go to the store
   buffer and only backpressure the window when it is full.

The simulator is deliberately a single readable function per access
rather than a cycle loop; all timing feedback happens through
completion times.  That generic loop is the semantic reference.  Runs
without an event observer go to the compiled kernel in
:mod:`repro.sim.native`, which reproduces it bit for bit, end-of-run
counters and metric snapshots included.
"""

from __future__ import annotations

from operator import attrgetter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Union

from repro import obs
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.cache.replacement.dip import DIPController
from repro.cache.replacement.registry import parse_policy_spec
from repro.config import MachineConfig, baseline_config
from repro.cpu.store_buffer import StoreBuffer
from repro.cpu.window import WindowModel
from repro.memory.controller import MemoryController
from repro.mlp.cost import MAX_COST_Q, quantize_cost
from repro.mlp.delta import DeltaTracker
from repro.mlp.mshr import MSHRFile
from repro.sbar.cbs import CBSController
from repro.sbar.sbar import SBARController
from repro.sbar.tournament import TournamentController
from repro.sim.stats import CostDistribution, PhaseSample, SimResult
from repro.trace.packed import pack_trace
from repro.trace.record import IFETCH, STORE

#: Valid ``Simulator(kernel=)`` values: ``"auto"`` replays on the
#: compiled native kernel whenever its gates hold, ``"generic"`` pins
#: the Python loop, the reference the tests compare the kernel with.
REPLAY_KERNELS = ("auto", "generic")

#: Things accepted as the L2 replacement specification.
PolicyLike = Union[
    ReplacementPolicy,
    SBARController,
    CBSController,
    DIPController,
    TournamentController,
    str,
]

#: The SimResult counters that count only after warm-up, each with the
#: live counter it reads.  :meth:`Simulator._finish_warmup` snapshots
#: them at the boundary and :meth:`Simulator._finalize` reports the
#: difference, so a counter missing here would mix warm-up activity
#: into the measured region.
_WINDOWED_COUNTERS = {
    "instructions": "window.instructions",
    "stall_events": "window.stall_events",
    "long_stalls": "window.long_stalls",
    "stall_cycles": "window.stall_cycles",
    "l2_accesses": "l2.accesses",
    "l2_misses": "l2.misses",
    "l1d_accesses": "l1d.accesses",
    "l1d_misses": "l1d.misses",
    "mshr_merges": "mshr.merges",
    "mshr_full_stalls": "mshr.full_stalls",
    "bank_conflicts": "memory.banks.conflicts",
    "bus_contended": "memory.bus.contended",
    "writebacks": "l2.writebacks",
}
_read_windowed = attrgetter(*_WINDOWED_COUNTERS.values())


class Simulator:
    """One configured machine, reusable for a single :meth:`run`.

    Args:
        config: machine description; defaults to the Table 2 baseline.
        policy: L2 replacement specification (see
            :func:`repro.cache.replacement.registry.parse_policy_spec`).
        phase_interval: if set, cut a :class:`PhaseSample` every this
            many instructions (Figure 11 uses 10M on the real machine);
            negative values are rejected.
        warmup_instructions: if set, caches/predictors train normally
            but the reported statistics (misses, cost distribution,
            deltas, IPC window) start after this many instructions —
            the warm-up counterpart of the paper's fast-forwarding.
        observer: explicit event :class:`repro.obs.Observer` to wire
            through the machine; defaults to
            :func:`repro.obs.default_observer` (None — and therefore
            zero overhead — unless event tracing is on).  A run with an
            observer takes the generic loop, the one that calls its
            hooks.
        kernel: ``"auto"`` (default) replays on the compiled native
            kernel when every gate in :func:`repro.sim.native.
            fallback_reason` holds, else on the generic loop;
            ``"generic"`` always takes the generic loop.  Both are
            bit-identical by contract, so the choice never appears in
            store keys.

    Whether the run's :class:`SimResult` carries a metric snapshot is
    :func:`repro.obs.metrics_enabled`, read here.  Every metric is an
    end-of-run counter both loops keep, so metrics never keep a run
    off the native kernel.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        policy: PolicyLike = "lru",
        phase_interval: Optional[int] = None,
        prefetcher=None,
        warmup_instructions: int = 0,
        observer: Optional[obs.Observer] = None,
        kernel: str = "auto",
    ) -> None:
        if kernel not in REPLAY_KERNELS:
            raise ValueError(
                "unknown replay kernel %r (expected one of %s)"
                % (kernel, ", ".join(REPLAY_KERNELS))
            )
        self.config = config or baseline_config()
        fixed, controller = parse_policy_spec(policy, self.config)
        self.controller = controller
        self._policy_label = (
            controller.name if controller is not None else fixed.name
        )
        self.window = WindowModel(
            self.config.processor.issue_width,
            self.config.processor.window_size,
        )
        self.store_buffer = StoreBuffer(self.config.processor.store_buffer_size)
        self.l1d = SetAssociativeCache(
            self.config.l1d, LRUPolicy(), track_compulsory=False, label="l1d"
        )
        self.l1i = SetAssociativeCache(
            self.config.l1i, LRUPolicy(), track_compulsory=False, label="l1i"
        )
        selector = controller.policy_for_set if controller is not None else None
        self.l2 = SetAssociativeCache(
            self.config.l2,
            fixed if fixed is not None else LRUPolicy(),
            policy_selector=selector,
            label="l2",
        )
        self.mshr = MSHRFile(
            self.config.mshr.n_entries, self.config.mshr.n_cost_adders
        )
        self.memory = MemoryController(self.config.memory)
        self._metrics = obs.metrics_enabled()
        self._obs = observer if observer is not None else obs.default_observer()
        if self._obs is not None:
            self._wire_observer(self._obs)
        #: Table 1's delta study: every serviced miss is fed to it.
        self.delta = DeltaTracker()
        self.cost_distribution = CostDistribution()
        self.phase_interval = phase_interval
        self.phases: List[PhaseSample] = []
        self.demand_misses = 0
        self.compulsory_misses = 0
        #: Serviced demand misses per cost_q that ``cost_distribution``
        #: leaves out because they issued during warm-up.
        self.warmup_cost_q = [0] * (MAX_COST_Q + 1)
        #: Optional StridePrefetcher (or anything with observe(block);
        #: the native kernel runs StridePrefetcher itself, see
        #: repro.sim.native).  Prefetch fills occupy the MSHR, banks,
        #: and bus and install tags, but are non-demand: excluded from
        #: Algorithm 1's N, from miss statistics, and from PSEL updates.
        self.prefetcher = prefetcher
        self.prefetches_issued = 0
        self.prefetch_hits_suppressed = 0
        if warmup_instructions < 0:
            raise ValueError("warm-up length cannot be negative")
        if phase_interval is not None and phase_interval < 0:
            raise ValueError("phase interval cannot be negative")
        self.warmup_instructions = warmup_instructions
        self._warm = warmup_instructions == 0
        #: The windowed counters, and the dispatch cycle, at the
        #: warm-up boundary; zero until it passes.
        self._warmup_base = dict.fromkeys(_WINDOWED_COUNTERS, 0)
        self._warmup_end_cycle = 0.0
        self._ran = False
        self._kernel = kernel
        #: Which path :meth:`run` actually took: ``"native"`` or
        #: ``"generic"``.  Reports use this so a silent fall-back shows
        #: up as data instead of masquerading as a timing regression.
        self.replay_kernel = "generic"
        #: When :meth:`run` took the generic loop, the first native gate
        #: that failed (``"observer"``, ``"warmup"``, ``"wrong-path
        #: records"``, ``"policy BeladyPolicy"``, ``"kernel=generic"``,
        #: ...); None otherwise.
        self.kernel_fallback: Optional[str] = None
        #: Seconds per replay stage of :meth:`run`: ``marshal``,
        #: ``kernel``, ``emit`` and ``write_back`` on the native kernel
        #: (see :func:`repro.sim.native.try_replay`), ``replay`` on the
        #: generic loop.  Provenance like ``replay_kernel``: reported in
        #: ``SimResult.meta["stage_s"]``, never in a digest or key.
        self.stage_s: Dict[str, float] = {}

    def _wire_observer(self, observer: obs.Observer) -> None:
        """Install the event sink into every instrumented component."""
        self.l1i.observer = observer
        self.l1d.observer = observer
        self.l2.observer = observer
        self.mshr.observer = observer
        self.memory.observer = observer
        for psel in self.psels():
            psel.observer = observer
        if isinstance(self.controller, TournamentController):
            self.controller.observer = observer

    def psels(self) -> list:
        """The L2 controller's PSEL counters (none without one)."""
        controller = self.controller
        if isinstance(controller, CBSController):
            return controller._psels
        if isinstance(controller, (SBARController, DIPController)):
            return [controller.psel]
        return []

    # -- main loop --------------------------------------------------------

    def run(self, trace) -> SimResult:
        """Simulate ``trace`` to completion.

        ``trace`` is a :class:`~repro.trace.packed.PackedTrace` or any
        sequence of :class:`~repro.trace.record.Access` records, which
        is packed (and validated) on entry.
        """
        if self._ran:
            raise RuntimeError("a Simulator instance runs exactly one trace")
        self._ran = True
        return self._finalize(self._replay(pack_trace(trace)))

    def _replay(self, trace) -> Optional[PhaseSample]:
        """Drive every access through the machine; returns the open phase.

        The loop is the simulator's hot path, so runs the native kernel
        admits are handed to it first; this generic loop keeps every
        hook live (observers, prefetchers, warm-up, wrong-path records,
        any policy) and is the semantic reference the kernel must match
        bit for bit.  Both read the packed columns, never an
        ``Access``.  Either path records its ``stage_s``.
        """
        if self._kernel == "generic":
            self.kernel_fallback = "kernel=generic"
        else:
            from repro.sim import native

            if native.try_replay(self, trace):
                return self.phases[-1] if self.phases else None
        replay_start = perf_counter()
        l1d = self.l1d
        l1i = self.l1i
        window = self.window
        controller = self.controller
        block_bits = self.config.block_bits
        phase_interval = self.phase_interval
        l1d_latency = l1d.hit_latency
        l1i_latency = l1i.hit_latency
        store_buffer = self.store_buffer
        advance = window.advance
        complete_memory_op = window.complete_memory_op
        access_hierarchy = self._access_hierarchy
        l1d_hit = l1d.try_hit
        l1i_hit = l1i.try_hit
        warm = self._warm
        warmup_instructions = self.warmup_instructions
        # Controllers that declare needs_instruction_clock=False have a
        # no-op note_instructions; skipping the call per record is pure
        # overhead removal.  Unknown controllers default to needing it.
        clock_controller = (
            controller
            if controller is not None
            and getattr(controller, "needs_instruction_clock", True)
            else None
        )
        bookkeeping = (
            clock_controller is not None or not warm or phase_interval
        )
        current_phase: Optional[PhaseSample] = None
        if phase_interval:
            current_phase = PhaseSample(start_instruction=0, start_cycle=0.0)
            self.phases.append(current_phase)

        for address, kind, gap, wrong_path in trace.iter_tuples():
            if wrong_path:
                # Wrong-path references disturb the caches and memory
                # timing but never the committed instruction stream.
                access_hierarchy(
                    address >> block_bits,
                    kind,
                    window.now,
                    demand=False,
                    phase=None,
                )
                continue

            dispatch = advance(gap)
            if bookkeeping:
                instr_index = window.instructions
                if not warm and instr_index >= warmup_instructions:
                    self._finish_warmup(dispatch)
                    warm = True
                    bookkeeping = (
                        clock_controller is not None or phase_interval
                    )
                if clock_controller is not None:
                    clock_controller.note_instructions(instr_index)
                if phase_interval and instr_index // phase_interval != (
                    current_phase.start_instruction // phase_interval
                ):
                    current_phase.end_instruction = instr_index
                    current_phase.end_cycle = dispatch
                    current_phase = PhaseSample(
                        start_instruction=instr_index, start_cycle=dispatch
                    )
                    self.phases.append(current_phase)

            block = address >> block_bits
            if kind == IFETCH:
                if l1i_hit(block):
                    complete_memory_op(dispatch + l1i_latency)
                    continue
            elif kind == STORE:
                if l1d_hit(block, True):
                    admitted = store_buffer.admit(
                        dispatch, dispatch + l1d_latency
                    )
                    if admitted > dispatch:
                        window.stall_until(admitted)
                    continue
            elif l1d_hit(block):
                complete_memory_op(dispatch + l1d_latency)
                continue

            completion = access_hierarchy(
                block, kind, dispatch, demand=True, phase=current_phase
            )
            if kind == STORE:
                admitted = store_buffer.admit(dispatch, completion)
                if admitted > dispatch:
                    window.stall_until(admitted)
            else:
                complete_memory_op(completion)

        self.mshr.drain()
        self.stage_s = {"replay": perf_counter() - replay_start}
        return current_phase

    def _access_hierarchy(
        self,
        block: int,
        kind: int,
        when: float,
        demand: bool,
        phase: Optional[PhaseSample],
    ) -> float:
        """Send one access down L1 -> L2 -> memory; return completion time."""
        mshr = self.mshr
        # Finalize the cost of every miss serviced before this access so
        # replacement sees up-to-date cost_q values (the hardware writes
        # cost into the tag store at service completion, Section 5).
        if when > mshr._now:
            mshr._advance(when)
        if kind == IFETCH:
            l1 = self.l1i
            is_store = False
        else:
            l1 = self.l1d
            is_store = kind == STORE
        r1 = l1.access(block, is_write=is_store)
        l1_done = when + l1.hit_latency
        if r1.hit:
            return l1_done
        if r1.victim_dirty:
            self._l1_writeback(r1.victim_block, when)

        r2 = self.l2.access(block)
        pending: Optional[Callable[[int], None]] = None
        controller = self.controller
        if demand and controller is not None:
            pending = controller.observe_access(r2.set_index, block, r2)

        l2_hit_latency = self.l2.hit_latency
        if r2.hit:
            # A tag hit may still be an in-flight line (hit-under-miss
            # to the same block): the access completes no earlier than
            # the outstanding fill.  No MSHR entry is allocated or
            # coalesced here, so the probe must not count as a merge.
            completion = l1_done + l2_hit_latency
            in_flight = mshr.lookup(block, l1_done, count_merge=False)
            if in_flight is not None and in_flight > completion:
                completion = in_flight
            assert pending is None, "controllers defer only on MTD misses"
            return completion

        # L2 miss path.
        victim_block = r2.victim_block
        if victim_block is not None:
            if r2.victim_dirty:
                self.memory.write_line(victim_block, l1_done)
            # Enforce inclusion: the victim leaves the L1s as well.
            self.l1d.invalidate(victim_block)
            self.l1i.invalidate(victim_block)

        warm = self._warm
        if demand and warm:
            self.demand_misses += 1
            if r2.compulsory:
                self.compulsory_misses += 1
            if phase is not None:
                phase.misses += 1

        in_flight = mshr.lookup(block, l1_done)
        if in_flight is not None:
            # The line's tag was evicted while its fill was still in
            # flight and is now re-requested: merge with the old fill.
            if pending is not None:
                pending(0)
            return max(in_flight, l1_done + l2_hit_latency)

        issue = mshr.admission_time(l1_done + l2_hit_latency)
        if issue < mshr._now:
            issue = mshr._now
        completion = self.memory.read_line(block, issue)
        on_cost = None
        if demand:
            on_cost = self._make_cost_sink(
                block, r2.state, pending, phase, record_stats=warm
            )
        mshr.allocate(block, issue, completion, demand, on_cost)
        if demand and self.prefetcher is not None:
            for candidate in self.prefetcher.observe(block):
                self._prefetch_block(candidate, issue)
        return completion

    def _prefetch_block(self, block: int, when: float) -> None:
        """Issue one non-demand prefetch into the L2."""
        if self.l2.contains(block) or self.mshr.in_flight(block, when):
            self.prefetch_hits_suppressed += 1
            return
        issue = self.mshr.admission_time(when)
        if issue < self.mshr.sweep_time:
            issue = self.mshr.sweep_time
        completion = self.memory.read_line(block, issue)
        self.mshr.allocate(block, issue, completion, is_demand=False)
        result = self.l2.access(block)
        if result.victim_dirty:
            self.memory.write_line(result.victim_block, issue)
        if result.victim_block is not None:
            self.l1d.invalidate(result.victim_block)
            self.l1i.invalidate(result.victim_block)
        self.prefetches_issued += 1

    def _make_cost_sink(self, block, state, pending, phase, record_stats=True):
        """Callback run when the MSHR sweep services this miss.

        ``record_stats=False`` (warm-up misses) still writes cost_q to
        the tag and drives PSEL — the mechanism must behave identically
        — but keeps the miss out of the reported distributions.
        """
        distribution = self.cost_distribution
        delta = self.delta
        warmup_cost_q = self.warmup_cost_q
        observer = self._obs

        def on_cost(cost: float) -> None:
            cost_q = quantize_cost(cost)
            state.cost_q = cost_q
            if observer is not None:
                observer.cost_quantized(block, cost, cost_q)
            if record_stats:
                distribution.record(cost)
                delta.record(block, cost)
                if phase is not None:
                    phase.cost_q_sum += cost_q
                    phase.cost_count += 1
            else:
                warmup_cost_q[cost_q] += 1
            if pending is not None:
                pending(cost_q)

        return on_cost

    def _finish_warmup(self, cycle: float) -> None:
        """Snapshot the reported statistics at the warm-up boundary."""
        self._warm = True
        self._warmup_base = dict(
            zip(_WINDOWED_COUNTERS, _read_windowed(self))
        )
        self._warmup_end_cycle = cycle

    def _l1_writeback(self, block: int, when: float) -> None:
        """An L1 victim writes back into the L2 without recency update."""
        resident = self.l2.set_state(self.l2.set_index(block)).get(block)
        if resident is not None:
            resident.dirty = True
        else:
            # Not in L2 (inclusion was broken by an L2 eviction racing
            # the dirty line): write through to memory, timing only.
            self.memory.write_line(block, when)

    # -- results ----------------------------------------------------------

    def _finalize(self, current_phase: Optional[PhaseSample]) -> SimResult:
        window = self.window
        cycles = window.finish()
        if current_phase is not None:
            current_phase.end_instruction = window.instructions
            current_phase.end_cycle = cycles
            if current_phase.instructions == 0 and len(self.phases) > 1:
                # The final access opened a zero-length phase; fold its
                # activity into the previous sample instead of losing it.
                tail = self.phases.pop()
                previous = self.phases[-1]
                previous.misses += tail.misses
                previous.cost_q_sum += tail.cost_q_sum
                previous.cost_count += tail.cost_count
        psel_final = None
        if isinstance(self.controller, SBARController):
            psel_final = self.controller.psel.value
        base = self._warmup_base
        windowed = {
            field: value - base[field]
            for field, value in zip(_WINDOWED_COUNTERS, _read_windowed(self))
        }
        result = SimResult(
            policy_name=self._policy_label,
            cycles=cycles - self._warmup_end_cycle,
            demand_misses=self.demand_misses,
            compulsory_misses=self.compulsory_misses,
            cost_distribution=self.cost_distribution,
            delta_summary=self.delta.summary(),
            phases=self.phases,
            psel_final=psel_final,
            **windowed,
        )
        # Provenance only: which path ran, and why not native.  Stored
        # on the instance (never a dataclass field), so digests, store
        # keys, and serialized payloads are untouched — see
        # SimResult.meta.
        result.meta = {"kernel_used": self.replay_kernel}
        if self.kernel_fallback is not None:
            result.meta["kernel_fallback"] = self.kernel_fallback
        result.meta["stage_s"] = self.stage_s
        if self._metrics:
            result.metrics = obs.run_snapshot(self, result)
        if self._obs is not None:
            self._obs.finalize_run(result)
        return result
