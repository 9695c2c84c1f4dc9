"""Miss Status Holding Register file with Algorithm 1 cost tracking.

Every outstanding L2 miss holds an MSHR entry from issue to service
completion.  The file provides three things the paper needs:

1. **Merging** — concurrent misses to one block share an entry (they are
   "treated as a single miss", Section 1 footnote).
2. **Capacity pressure** — the Table 2 machine has 32 entries; a miss
   arriving at a full MSHR waits for the earliest completion.
3. **mlp-cost** — Algorithm 1: each cycle every demand miss accrues
   ``1/N``.  We integrate this in event-driven form: between occupancy
   changes ``N`` is constant, so each demand miss accrues ``dt/N`` per
   interval.  A shared accumulator ``A += dt/N`` makes this O(1) per
   event: a miss's cost is ``A(complete) - A(issue)``.  The equivalence
   with the per-cycle loop is exact and checked by property tests
   against :func:`repro.mlp.cost.reference_mlp_costs`.

The optional shared-adder mode models footnote 3 of the paper: with
``n_cost_adders = a`` the cost is truncated to multiples of ``1/a`` of a
cycle, which bounds the deviation from the idealized algorithm by one
adder visit (< 0.25 cycles for the paper's four adders — "negligible").
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

#: Inclusive upper bounds of the MSHR occupancy buckets (entries in
#: flight at an allocation).
OCCUPANCY_BOUNDS = (1, 2, 4, 8, 16, 24, 32, 64)


class MSHRFullError(RuntimeError):
    """Raised when allocation is forced at a full MSHR."""


class _Entry:
    __slots__ = (
        "block", "issue", "complete", "is_demand",
        "accumulator_start", "cost", "on_cost",
    )

    def __init__(
        self, block: int, issue: float, complete: float, is_demand: bool
    ) -> None:
        self.block = block
        self.issue = issue
        self.complete = complete
        self.is_demand = is_demand
        self.accumulator_start = 0.0
        self.cost: Optional[float] = None
        self.on_cost = None


class MSHRFile:
    """MSHR with event-driven Algorithm 1 integration.

    Allocations must arrive in non-decreasing issue-time order (the
    window model dispatches in program order, which guarantees this);
    the file asserts it.
    """

    def __init__(self, n_entries: int = 32, n_cost_adders: int = 0) -> None:
        if n_entries < 1:
            raise ValueError("MSHR needs at least one entry")
        if n_cost_adders < 0:
            raise ValueError("adder count cannot be negative")
        self.n_entries = n_entries
        self.n_cost_adders = n_cost_adders
        # Sweep state for the cost integral.
        self._now = 0.0
        self._accumulator = 0.0
        self._demand_live = 0
        self._demand_heap: List[Tuple[float, int, _Entry]] = []
        # Occupancy state (all entries, demand or not).
        self._occupancy_heap: List[float] = []
        self._in_flight: Dict[int, _Entry] = {}
        self._tiebreak = 0
        # Statistics.
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.peak_occupancy = 0
        #: Allocations by the entries in flight once they were made,
        #: bucketed by :data:`OCCUPANCY_BOUNDS` plus an overflow bucket.
        self.occupancy_counts = [0] * (len(OCCUPANCY_BOUNDS) + 1)
        #: Optional :class:`repro.obs.Observer`; receives miss_start /
        #: miss_finish transitions and occupancy samples when set.
        self.observer = None

    # -- capacity ------------------------------------------------------

    def occupancy_at(self, when: float) -> int:
        """Number of entries still in flight at time ``when``."""
        heap = self._occupancy_heap
        while heap and heap[0] <= when:
            heappop(heap)
        return len(heap)

    def admission_time(self, when: float) -> float:
        """Earliest time >= ``when`` at which an entry is free.

        Increments the full-stall counter when the caller must wait.
        """
        heap = self._occupancy_heap
        while heap and heap[0] <= when:
            heappop(heap)
        while len(heap) >= self.n_entries:
            earliest = heappop(heap)
            if earliest > when:
                when = earliest
                self.full_stalls += 1
        return when

    # -- lookup / merge -------------------------------------------------

    def lookup(
        self, block: int, when: float, count_merge: bool = True
    ) -> Optional[float]:
        """If ``block`` is in flight at ``when``, return its completion.

        A hit on the *miss path* is a merge: the access piggybacks on
        the existing entry instead of allocating a new one, and
        ``merges`` counts it.  Callers probing completion times without
        coalescing an allocation — the L2 tag-hit path, where the line
        is resident but its fill is still outstanding (hit-under-miss)
        — pass ``count_merge=False`` so the statistic reports only real
        entry sharing.
        """
        entry = self._in_flight.get(block)
        if entry is None:
            return None
        if entry.complete <= when:
            del self._in_flight[block]
            return None
        if count_merge:
            self.merges += 1
        return entry.complete

    def in_flight(self, block: int, when: float) -> bool:
        """Non-counting residency probe (used by the prefetcher)."""
        entry = self._in_flight.get(block)
        return entry is not None and entry.complete > when

    # -- allocation ------------------------------------------------------

    def allocate(
        self,
        block: int,
        issue: float,
        complete: float,
        is_demand: bool = True,
        on_cost=None,
    ) -> None:
        """Install a miss that issues at ``issue`` and fills at ``complete``.

        ``on_cost`` is an optional callable invoked with the finalized
        mlp-cost once the sweep passes the miss's completion — this is
        how the simulator writes cost_q into the tag store "when a miss
        gets serviced" (Section 5).

        The caller is responsible for having consulted
        :meth:`admission_time` (so ``issue`` respects capacity) and
        :meth:`lookup` (so merges never reach here).
        """
        if issue + 1e-9 < self._now:
            raise ValueError(
                "allocations must be time-ordered: issue %.1f < sweep %.1f"
                % (issue, self._now)
            )
        if complete < issue:
            raise ValueError("completion precedes issue")
        self._advance(issue)
        entry = _Entry(block, issue, complete, is_demand)
        entry.on_cost = on_cost
        if is_demand:
            entry.accumulator_start = self._accumulator
            self._demand_live += 1
            self._tiebreak += 1
            heappush(self._demand_heap, (complete, self._tiebreak, entry))
        heappush(self._occupancy_heap, complete)
        self._in_flight[block] = entry
        self.allocations += 1
        occupancy = len(self._occupancy_heap)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        self.occupancy_counts[bisect_left(OCCUPANCY_BOUNDS, occupancy)] += 1
        if self.observer is not None:
            self.observer.miss_start(
                block, issue, complete, is_demand, occupancy
            )

    # -- the Algorithm 1 sweep --------------------------------------------

    def _advance(self, target: float) -> None:
        """Advance the cost integral from the current sweep time to ``target``."""
        heap = self._demand_heap
        now = self._now
        if not heap or heap[0][0] > target:
            # No completions in the interval: integrate and move on.
            if target > now:
                live = self._demand_live
                if live:
                    self._accumulator += (target - now) / live
                self._now = target
            return
        while heap and heap[0][0] <= target:
            complete, _, entry = heappop(heap)
            if complete > now:
                self._accumulator += (complete - now) / self._demand_live
                now = complete
            entry.cost = self._finalize_cost(
                self._accumulator - entry.accumulator_start
            )
            self._demand_live -= 1
            if self._in_flight.get(entry.block) is entry:
                del self._in_flight[entry.block]
            if self.observer is not None:
                self.observer.miss_finish(
                    entry.block, complete, entry.cost, self._demand_live
                )
            if entry.on_cost is not None:
                entry.on_cost(entry.cost)
        if target > now and self._demand_live:
            self._accumulator += (target - now) / self._demand_live
        self._now = max(target, now)

    def _finalize_cost(self, exact: float) -> float:
        if self.n_cost_adders:
            return math.floor(exact * self.n_cost_adders) / self.n_cost_adders
        return exact

    def advance_to(self, when: float) -> None:
        """Advance the cost sweep to ``when``, finalizing serviced misses.

        The simulator calls this before replacement decisions so that
        tag entries of already-serviced misses carry their cost_q, just
        as the hardware writes the cost at service completion.
        """
        if when > self._now:
            self._advance(when)

    def drain(self) -> None:
        """Run the sweep past every outstanding completion (end of trace)."""
        if self._demand_heap:
            horizon = max(complete for complete, _, _ in self._demand_heap)
            self._advance(horizon + 1)

    @property
    def outstanding_demand(self) -> int:
        """Demand misses the sweep currently considers in flight."""
        return self._demand_live

    @property
    def sweep_time(self) -> float:
        """How far the cost integral has advanced; allocations must not
        issue before this time."""
        return self._now
