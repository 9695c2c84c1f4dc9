"""Insertion-policy family: LIP, BIP, and set-dueling DIP.

An extension beyond the paper: Qureshi et al.'s follow-up work
("Adaptive Insertion Policies for High-Performance Caching", ISCA'07)
generalized SBAR's sampling idea into *set dueling*.  Implementing the
family here lets the harness compare the recency-axis adaptive scheme
(DIP) against the cost-axis one (LIN/SBAR):

* **LIP** — LRU Insertion Policy: fills go to the LRU position, so a
  block must be reused once to be promoted.  Defeats thrashing.
* **BIP** — Bimodal Insertion: LIP, except every ``1/epsilon``-th fill
  inserts at MRU, letting the working set migrate slowly.
* **DIP** — Dynamic Insertion: dedicated leader sets run LRU-insert
  and BIP respectively; a PSEL counter tracks which leader group
  misses less and the follower sets copy the winner.

Unlike CBS/SBAR, DIP's dueling needs no auxiliary tag directory at
all — the leader sets duel inside the main cache — but its PSEL counts
raw misses, not MLP-based cost.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.cache.block import BlockState
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.sets import CacheSet
from repro.sbar.leader_sets import simple_static_leaders
from repro.sbar.psel import PolicySelector


class LIPPolicy(ReplacementPolicy):
    """LRU replacement with LRU-position insertion."""

    name = "lip"

    def choose_victim(self, cache_set: CacheSet) -> int:
        return len(cache_set.ways) - 1

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        cache_set.insert_lru(state)


class BIPPolicy(ReplacementPolicy):
    """Bimodal insertion: LIP with an occasional MRU insertion.

    The MRU fills happen deterministically every ``1/epsilon`` fills
    (the hardware uses a simple counter too), keeping runs repeatable.
    """

    def __init__(self, epsilon: float = 1.0 / 32.0) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must be in (0, 1]")
        self.period = max(1, round(1.0 / epsilon))
        self.name = "bip(1/%d)" % self.period
        self._fills = 0

    def choose_victim(self, cache_set: CacheSet) -> int:
        return len(cache_set.ways) - 1

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        self._fills += 1
        if self._fills % self.period == 0:
            cache_set.insert_mru(state)
        else:
            cache_set.insert_lru(state)


class DIPController:
    """Set-dueling selection between LRU and BIP insertion.

    Presents the same controller interface the simulator uses for
    SBAR/CBS (``policy_for_set`` / ``observe_access`` /
    ``note_instructions``) so ``Simulator(..., policy="dip")`` works.
    """

    #: :meth:`note_instructions` is a no-op, so the simulator may skip
    #: the per-record call entirely.
    needs_instruction_clock = False

    def __init__(
        self,
        n_sets: int,
        associativity: int,
        n_leaders: int = 32,
        psel_bits: int = 10,
        epsilon: float = 1.0 / 32.0,
    ) -> None:
        del associativity  # dueling happens in the main directory
        if n_sets < 2 or n_leaders < 1:
            raise ValueError(
                "DIP needs at least 2 sets and 1 leader per policy, got "
                "%d sets and %d leaders" % (n_sets, n_leaders)
            )
        n_leaders = min(n_leaders, n_sets // 2)
        self.n_sets = n_sets
        self.lru = LRUPolicy()
        self.bip = BIPPolicy(epsilon)
        self.psel = PolicySelector(psel_bits, label="dip")
        # LRU leaders at the simple-static positions (set c of
        # constituency c); BIP leaders at the constituency-reversed
        # offset (set size-1-c of constituency c), which never collides
        # for even constituency sizes.
        constituency_size = n_sets // n_leaders
        self.lru_leaders: FrozenSet[int] = simple_static_leaders(
            n_sets, n_leaders
        )
        self.bip_leaders: FrozenSet[int] = frozenset(
            constituency * constituency_size + (constituency_size - 1 - constituency) % constituency_size
            for constituency in range(n_leaders)
        ) - self.lru_leaders
        self.deferred_updates = 0

    @property
    def name(self) -> str:
        return "dip(%d+%d leaders)" % (
            len(self.lru_leaders), len(self.bip_leaders)
        )

    def note_instructions(self, instr_index: int) -> None:
        """DIP has no epoch behavior; present for interface parity."""

    def policy_for_set(self, set_index: int) -> ReplacementPolicy:
        if set_index in self.lru_leaders:
            return self.lru
        if set_index in self.bip_leaders:
            return self.bip
        # MSB set means the LRU leaders are missing more: follow BIP.
        return self.bip if self.psel.msb else self.lru

    def observe_access(self, set_index: int, block: int, mtd_result):
        """Count leader-set misses; no deferred cost updates needed.

        ``mtd_result`` is the cache's AccessResult (typed loosely to
        avoid a circular import with the cache package).
        """
        if mtd_result.hit:
            return None
        if set_index in self.lru_leaders:
            self.psel.increment(1)
        elif set_index in self.bip_leaders:
            self.psel.decrement(1)
        return None
