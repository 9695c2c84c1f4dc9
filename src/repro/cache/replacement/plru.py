"""Tree pseudo-LRU and a cost-aware variant on top of it.

Real 16-way caches rarely track true LRU stacks; they keep a binary
tree of direction bits per set (``associativity - 1`` bits).  Hardware
-fidelity questions for the paper's proposal: (a) how much of LRU's
behaviour does tree-PLRU retain on these workloads, and (b) does
LIN-style cost protection still work when the recency substrate is a
PLRU tree rather than a true stack?

:class:`TreePLRUPolicy` implements the classic scheme: on an access,
all tree bits on the path to the touched way are pointed *away* from
it; the victim is found by following the bits from the root.
:class:`CostAwareTreePLRUPolicy` adds the paper's cost protection with
a depth-limited search: follow the PLRU path, but reject up to
``max_rejects`` victims whose cost_q is at or above a threshold,
re-pointing the tree past them (an implementable analogue of LIN for
PLRU hardware).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cache.block import BlockState
from repro.cache.deferred import deferred
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


class _TreeState:
    """Direction bits of one set's PLRU tree (flat array encoding).

    Node ``i`` has children ``2i+1`` and ``2i+2``; a bit of 0 means the
    LRU side is the left subtree.  Leaves map to physical way slots.
    """

    __slots__ = ("bits", "n_ways")

    def __init__(self, n_ways: int) -> None:
        self.n_ways = n_ways
        self.bits = [0] * (n_ways - 1)

    def touch(self, way: int) -> None:
        """Point every bit on the way's path away from it."""
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                self.bits[node] = 1  # LRU side is now the right half
                node = 2 * node + 1
                high = mid
            else:
                self.bits[node] = 0
                node = 2 * node + 2
                low = mid
        # Leaf reached; nothing to store at leaves.

    def victim(self) -> int:
        """Follow the bits from the root to the PLRU way."""
        node = 0
        low, high = 0, self.n_ways
        while high - low > 1:
            mid = (low + high) // 2
            if self.bits[node] == 0:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        return low


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU over physical way slots.

    The policy pins blocks to physical slots: unlike the stack-order
    policies it must not let the cache reorder ways, so hits do *not*
    move blocks; the tree bits carry all recency state.
    """

    name = "tree-plru"

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _trees = deferred()

    def __init__(self) -> None:
        self._trees: Dict[int, _TreeState] = {}
        self._pending_slot: Dict[int, int] = {}

    def _tree_for(self, cache_set: CacheSet) -> _TreeState:
        key = id(cache_set)
        tree = self._trees.get(key)
        if tree is None:
            if not _is_power_of_two(cache_set.associativity):
                raise ValueError(
                    "tree-PLRU needs a power-of-two associativity, got %d"
                    % cache_set.associativity
                )
            tree = _TreeState(cache_set.associativity)
            self._trees[key] = tree
        return tree

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        self._tree_for(cache_set).touch(position)

    def choose_victim(self, cache_set: CacheSet) -> int:
        victim = self._tree_for(cache_set).victim()
        # The cache will evict this position and then fill; remember it
        # so the fill lands in the same physical slot (PLRU state is
        # per-slot, so ways must not shift).
        self._pending_slot[id(cache_set)] = victim
        return victim

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        slot = self._pending_slot.pop(id(cache_set), None)
        if slot is None:
            # Cold fill: take the next free physical slot.
            slot = len(cache_set.ways)
        cache_set.insert_at(slot, state)
        self._tree_for(cache_set).touch(slot)


class CostAwareTreePLRUPolicy(TreePLRUPolicy):
    """Tree-PLRU with LIN-style protection of high-cost blocks.

    The victim search walks the tree; if the chosen way's cost_q is at
    least ``protect_threshold``, the way is touched (re-pointing the
    tree away) and the walk retries, up to ``max_rejects`` times.  This
    is implementable with a small iteration counter in hardware and
    approximates LIN's argmin on a PLRU substrate.
    """

    def __init__(self, protect_threshold: int = 4, max_rejects: int = 3) -> None:
        super().__init__()
        if not 0 <= protect_threshold <= 7:
            raise ValueError("threshold must be a 3-bit cost")
        if max_rejects < 0:
            raise ValueError("reject budget cannot be negative")
        self.protect_threshold = protect_threshold
        self.max_rejects = max_rejects
        self.name = "cost-plru(%d,%d)" % (protect_threshold, max_rejects)

    def choose_victim(self, cache_set: CacheSet) -> int:
        tree = self._tree_for(cache_set)
        victim = tree.victim()
        for _ in range(self.max_rejects):
            if cache_set.ways[victim].cost_q < self.protect_threshold:
                break
            tree.touch(victim)
            victim = tree.victim()
        self._pending_slot[id(cache_set)] = victim
        return victim
