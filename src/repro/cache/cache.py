"""The set-associative tag store (MTD of Figure 3a).

The cache operates on *block numbers* (byte address divided by line
size); the hierarchy layer does the division.  Because this is a timing
simulator, no data is stored — the cache is exactly the paper's "tag
directory", which is also why the same class implements the ATDs.

Per-set replacement is delegated to a policy object; a *policy
selector* callable can override the policy per set, which is how SBAR
makes leader sets run LIN while follower sets obey the PSEL counter.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.cache.block import BlockState
from repro.cache.deferred import deferred
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet
from repro.config import CacheGeometry


class AccessResult:
    """Outcome of one cache access.

    Attributes:
        hit: whether the block was resident.
        state: the tag entry touched (on hit) or installed (on miss).
            The simulator patches ``state.cost_q`` when the miss's
            mlp-cost is serviced.
        set_index: the set the access mapped to.
        victim_block: block number evicted to make room, or None.
        victim_dirty: whether the victim needs a writeback.
        compulsory: True when the block was never seen before (cold
            miss); used for the Table 3 compulsory-miss percentages.
    """

    __slots__ = (
        "hit", "state", "set_index", "victim_block", "victim_dirty",
        "compulsory",
    )

    def __init__(self, hit: bool, state: BlockState, set_index: int) -> None:
        self.hit = hit
        self.state = state
        self.set_index = set_index
        self.victim_block: Optional[int] = None
        self.victim_dirty = False
        self.compulsory = False


class SetAssociativeCache:
    """Tag store with pluggable replacement.

    Args:
        geometry: size/line/associativity description.
        policy: default replacement policy for every set.
        policy_selector: optional ``set_index -> policy`` override used
            by adaptive schemes (SBAR); when provided it wins over
            ``policy``.
        track_compulsory: record first-touch blocks so results can be
            classified as compulsory misses (Table 3).
    """

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _sets = deferred()
    _seen = deferred()

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        policy_selector: Optional[Callable[[int], ReplacementPolicy]] = None,
        track_compulsory: bool = True,
        label: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.policy_selector = policy_selector
        #: Telemetry identity ("l1i"/"l1d"/"l2") and optional sink; the
        #: simulator installs a :class:`repro.obs.Observer` here.  All
        #: hooks are behind ``is not None`` so the disabled path costs
        #: one pointer test on evictions only.
        self.label = label
        self.observer = None
        self.n_sets = geometry.n_sets
        self.hit_latency = geometry.hit_latency
        self._sets: List[CacheSet] = [
            CacheSet(geometry.associativity) for _ in range(self.n_sets)
        ]
        self._seen: Optional[Set[int]] = set() if track_compulsory else None
        self._seq = 0
        # Aggregate counters.
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.compulsory_misses = 0
        self.writebacks = 0

    def set_index(self, block: int) -> int:
        return block % self.n_sets

    def set_state(self, set_index: int) -> CacheSet:
        """Direct access to a set, for tests and the SBAR controller."""
        return self._sets[set_index]

    def contains(self, block: int) -> bool:
        """Non-destructive residency probe (no recency update)."""
        return block in self._sets[block % self.n_sets]._index

    def try_hit(self, block: int, is_write: bool = False) -> bool:
        """Fast-path probe: complete the access if it is a hit.

        On a hit with a plain recency policy (no selector, no overridden
        ``note_access``/``on_hit``) and no observer installed, this
        applies exactly the side effects :meth:`access` would (sequence
        number, counters, move-to-MRU, dirty bit) without building an
        :class:`AccessResult`, and returns True.  In every other case —
        including a plain miss — it returns False *without side effects*
        and the caller must fall back to :meth:`access`.
        """
        if not self.is_plain():
            return False
        return self.hit_fast(block, is_write)

    def is_plain(self) -> bool:
        """Whether the :meth:`hit_fast` probe is currently equivalent
        to a hitting :meth:`access`: no observer, no per-set policy
        override, no instance-level ``access`` wrapper (instrumentation
        such as ``repro.analysis.attach_classifier`` patches it), and a
        policy that keeps the default ``note_access``/``on_hit``
        hooks."""
        policy = self.policy
        return (
            self.observer is None
            and self.policy_selector is None
            and "access" not in self.__dict__
            and not policy.needs_note_access
            and policy.default_on_hit
        )

    def hit_fast(self, block: int, is_write: bool = False) -> bool:
        """Unguarded hit probe: the caller must have checked
        :meth:`is_plain` (once per run is enough — the conditions only
        change when an observer or selector is installed).  Returns
        False with no side effects on a miss."""
        cache_set = self._sets[block % self.n_sets]
        state = cache_set._index.get(block)
        if state is None:
            return False
        self._seq += 1
        self.accesses += 1
        self.hits += 1
        ways = cache_set.ways
        if ways[0] is not state:
            ways.remove(state)
            ways.insert(0, state)
        if is_write:
            state.dirty = True
        return True

    def access(self, block: int, is_write: bool = False) -> AccessResult:
        """Look up ``block``; on a miss, install it, evicting if needed."""
        set_index = block % self.n_sets
        cache_set = self._sets[set_index]
        selector = self.policy_selector
        policy = selector(set_index) if selector is not None else self.policy
        seq = self._seq
        self._seq = seq + 1
        self.accesses += 1
        if policy.needs_note_access:
            policy.note_access(block, seq)

        observer = self.observer
        profiler = observer.profiler if observer is not None else None
        if profiler is None:
            state = cache_set._index.get(block)
        else:
            with profiler.span("cache.lookup"):
                state = cache_set._index.get(block)
        if state is not None:
            self.hits += 1
            ways = cache_set.ways
            if policy.default_on_hit:
                if ways[0] is not state:
                    ways.remove(state)
                    ways.insert(0, state)
            else:
                policy.on_hit(cache_set, ways.index(state))
            if is_write:
                state.dirty = True
            return AccessResult(True, state, set_index)

        self.misses += 1
        state = BlockState(block, seq)
        result = AccessResult(False, state, set_index)
        ways = cache_set.ways
        if len(ways) >= cache_set.associativity:
            if profiler is None:
                victim_position = policy.choose_victim(cache_set)
            else:
                with profiler.span("cache.replacement"):
                    victim_position = policy.choose_victim(cache_set)
            victim = ways.pop(victim_position)
            del cache_set._index[victim.block]
            result.victim_block = victim.block
            result.victim_dirty = victim.dirty
            if victim.dirty:
                self.writebacks += 1
            if observer is not None:
                observer.victim_selected(
                    self.label, set_index, victim, policy.name, cache_set
                )
        if policy.default_on_fill:
            ways.insert(0, state)
            cache_set._index[block] = state
        else:
            policy.on_fill(cache_set, state)
        if is_write:
            state.dirty = True
        seen = self._seen
        if seen is not None and block not in seen:
            seen.add(block)
            result.compulsory = True
            self.compulsory_misses += 1
        return result

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if resident (inclusion enforcement); no writeback."""
        cache_set = self._sets[block % self.n_sets]
        state = cache_set._index.get(block)
        if state is None:
            return False
        cache_set.ways.remove(state)
        del cache_set._index[block]
        return True

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def resident_blocks(self) -> Set[int]:
        """All blocks currently in the cache (test helper)."""
        resident: Set[int] = set()
        for cache_set in self._sets:
            for state in cache_set.ways:
                resident.add(state.block)
        return resident
