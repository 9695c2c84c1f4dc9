"""AWRP: adaptive weight ranking replacement.

After the Adaptive Weight Ranking Policy (arXiv:1107.4851): every
resident block gets a rank combining recency with a weighted measure of
its access frequency, and the block with the *lowest* rank is evicted.
Here the rank is::

    rank(i) = R(i) + weight * min(count(i), COUNT_CAP)

where ``R`` is the recency value the LIN policy uses (MRU highest) and
``count`` is the number of touches the block has received, halved every
``DECAY_FILLS`` fills so stale popularity ages out instead of pinning
dead blocks forever.  Ties break toward the smaller recency, matching
LIN's tie-break, so ``weight=0`` ("equal weights" — frequency carries
nothing) is victim-for-victim identical to LRU; the differential
battery in ``tests/test_differential.py`` pins that equivalence.

Access counts live in a policy-level dict keyed by block number (like
the cost integrator's delta tracker, it grows with the touched
footprint; the decay sweep drops zeroed entries to bound it).
"""

from __future__ import annotations

from typing import Dict

from repro.cache.block import BlockState
from repro.cache.deferred import deferred
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet

DEFAULT_WEIGHT = 1.0

#: Frequency saturates here so one hot block cannot become unevictable.
COUNT_CAP = 16

#: Halve every access count after this many fills (a decay "epoch").
DECAY_FILLS = 4096


class AWRPPolicy(ReplacementPolicy):
    """Adaptive weight ranking: evict the lowest recency+frequency rank."""

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _counts = deferred()

    def __init__(self, weight: float = DEFAULT_WEIGHT) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative, got %r" % weight)
        self.weight = float(weight)
        self.name = "awrp(%g)" % self.weight
        self._counts: Dict[int, int] = {}
        self._fills = 0

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        state = cache_set.touch(position)
        counts = self._counts
        block = state.block
        current = counts.get(block, 0)
        if current < COUNT_CAP:
            counts[block] = current + 1

    def choose_victim(self, cache_set: CacheSet) -> int:
        weight = self.weight
        ways = cache_set.ways
        counts = self._counts
        mru_recency = cache_set.associativity - 1
        best_position = 0
        best_rank = mru_recency + weight * counts.get(ways[0].block, 0)
        for position in range(1, len(ways)):
            rank = mru_recency - position + weight * counts.get(
                ways[position].block, 0
            )
            # "<=" keeps the later (lower-recency) candidate on ties,
            # the same tie-break LIN uses; with weight 0 this scan
            # always lands on the LRU tail.
            if rank <= best_rank:
                best_rank = rank
                best_position = position
        return best_position

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        self._counts[state.block] = 1
        self._fills += 1
        if self._fills % DECAY_FILLS == 0:
            self._counts = {
                block: count >> 1
                for block, count in self._counts.items()
                if count > 1
            }
            self._counts[state.block] = 1
        cache_set.insert_mru(state)
