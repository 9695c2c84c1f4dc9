"""Sampling Based Adaptive Replacement (Section 6.4, Figure 7c).

The main tag directory's sets are split into *leader* sets, which
always run LIN and update PSEL, and *follower* sets, which run whatever
PSEL currently favors.  A single sparse ATD implementing LRU shadows
only the leader sets; on divergent outcomes between a leader MTD set
(playing the role of ATD-LIN) and its ATD-LRU shadow, PSEL moves by the
quantized cost of the miss the losing policy incurred:

* leader MTD hit, ATD-LRU miss  ->  PSEL += cost_q (LIN avoided a miss);
  the cost comes from the MTD tag entry (footnote 6).
* leader MTD miss, ATD-LRU hit  ->  PSEL -= cost_q (LRU avoided it);
  the miss is real and its mlp-cost is known when it is serviced, so
  the update is deferred — :meth:`SBARController.observe_access`
  returns a callback the simulator invokes with the serviced cost_q.

This cost-weighted update is what makes the contest about *stall
cycles* rather than raw misses (Section 6.1).
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, Optional

from repro.cache.cache import AccessResult
from repro.cache.replacement import LINPolicy, LRUPolicy, ReplacementPolicy
from repro.cache.tag_directory import SparseTagDirectory
from repro.sbar.leader_sets import rand_dynamic_leaders, simple_static_leaders
from repro.sbar.psel import PolicySelector

#: Leader-selection policy names accepted by the controller.
SIMPLE_STATIC = "simple-static"
RAND_DYNAMIC = "rand-dynamic"


class SBARController:
    """Drives SBAR for one cache.

    Plug :meth:`policy_for_set` into the cache's ``policy_selector`` and
    call :meth:`observe_access` after every demand access; when it
    returns a callback, invoke it with the serviced miss's cost_q.
    """

    def __init__(
        self,
        n_sets: int,
        associativity: int,
        lam: int = 4,
        n_leaders: int = 32,
        selection: str = SIMPLE_STATIC,
        psel_bits: int = 6,
        seed: int = 0,
        epoch_instructions: Optional[int] = None,
    ) -> None:
        if selection not in (SIMPLE_STATIC, RAND_DYNAMIC):
            raise ValueError("unknown leader selection %r" % selection)
        self.n_sets = n_sets
        self.associativity = associativity
        self.n_leaders = n_leaders
        self.selection = selection
        self.lin = LINPolicy(lam)
        self.lru = LRUPolicy()
        self.psel = PolicySelector(psel_bits, label="sbar")
        self._rng = random.Random(seed)
        self.epoch_instructions = epoch_instructions
        # Only rand-dynamic epochs consume the instruction clock; the
        # simulator skips the per-record note_instructions call (and
        # may hoist the leader set) when this is False.
        self.needs_instruction_clock = (
            selection == RAND_DYNAMIC and epoch_instructions is not None
        )
        self._epoch = 0
        self.leaders: FrozenSet[int] = self._draw_leaders()
        self.atd_lru = SparseTagDirectory(
            self.leaders, associativity, LRUPolicy()
        )
        # Statistics.
        self.follower_lin_accesses = 0
        self.follower_lru_accesses = 0
        self.deferred_updates = 0

    @property
    def name(self) -> str:
        return "sbar(%s,%d)" % (self.selection, self.n_leaders)

    def _draw_leaders(self) -> FrozenSet[int]:
        if self.selection == SIMPLE_STATIC:
            return simple_static_leaders(self.n_sets, self.n_leaders)
        return rand_dynamic_leaders(self.n_sets, self.n_leaders, self._rng)

    # -- simulator hooks -------------------------------------------------

    def note_instructions(self, instr_index: int) -> None:
        """Advance the rand-dynamic epoch clock (Section 6.6)."""
        if self.epoch_instructions is None or self.selection != RAND_DYNAMIC:
            return
        epoch = instr_index // self.epoch_instructions
        if epoch != self._epoch:
            self._epoch = epoch
            self.leaders = self._draw_leaders()
            self.atd_lru = SparseTagDirectory(
                self.leaders, self.associativity, LRUPolicy()
            )

    def policy_for_set(self, set_index: int) -> ReplacementPolicy:
        """Leader sets always run LIN; followers obey PSEL."""
        if set_index in self.leaders:
            return self.lin
        if self.psel.msb:
            self.follower_lin_accesses += 1
            return self.lin
        self.follower_lru_accesses += 1
        return self.lru

    def observe_access(
        self, set_index: int, block: int, mtd_result: AccessResult
    ) -> Optional[Callable[[int], None]]:
        """Race the ATD-LRU shadow against a leader set.

        Returns a deferred PSEL update for the "MTD miss, ATD hit"
        case; None otherwise.
        """
        if set_index not in self.leaders:
            return None
        atd_result = self.atd_lru.access(set_index, block)
        if mtd_result.hit == atd_result.hit:
            return None
        if mtd_result.hit:
            # LIN kept the block, LRU would have missed it.
            self.psel.increment(mtd_result.state.cost_q)
            return None
        # LRU kept the block, LIN missed: charge LIN the serviced cost.
        self.deferred_updates += 1
        return self.psel.decrement
