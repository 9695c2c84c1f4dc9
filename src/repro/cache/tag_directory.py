"""Sparse tag directory: ATD entries for leader sets only.

SBAR's key saving is that the auxiliary directory holds entries for the
K leader sets instead of all N sets (Figure 7c), cutting ATD storage by
N/K (64x for the paper's 32 leaders over 1024 sets).  The sparse
directory maps a *global* set index onto its own small set array, and
refuses accesses for sets it does not shadow.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cache.cache import AccessResult
from repro.cache.block import BlockState
from repro.cache.deferred import deferred
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet


class SparseTagDirectory:
    """Tag-only directory shadowing a subset of the main cache's sets."""

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _sets = deferred()

    def __init__(
        self,
        set_indices: Iterable[int],
        associativity: int,
        policy: ReplacementPolicy,
    ) -> None:
        self.policy = policy
        self.associativity = associativity
        self._sets: Dict[int, CacheSet] = {
            index: CacheSet(associativity) for index in set_indices
        }
        self._seq = 0
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def shadows(self, set_index: int) -> bool:
        return set_index in self._sets

    def is_plain(self) -> bool:
        """Whether the native replay kernel may stand in for this directory.

        True only for an exact :class:`SparseTagDirectory` whose
        :meth:`access` has not been patched on the instance — the same
        contract :meth:`SetAssociativeCache.is_plain` gives the main
        directory.  Callers additionally check the *policy* type before
        reproducing its hit/victim/fill behavior.
        """
        return type(self) is SparseTagDirectory and "access" not in self.__dict__

    @property
    def n_sets(self) -> int:
        return len(self._sets)

    @property
    def n_entries(self) -> int:
        """Total tag entries provisioned (for overhead accounting)."""
        return len(self._sets) * self.associativity

    def set_state(self, set_index: int) -> CacheSet:
        return self._sets[set_index]

    def access(self, set_index: int, block: int) -> AccessResult:
        """Run one access against the shadowed set.

        Follows the same hit/miss/replace protocol as the main tag
        directory; per footnote 6 of the paper, ATD misses are *not*
        sent to memory — the directory simply victimizes internally.
        """
        cache_set = self._sets[set_index]
        seq = self._seq
        self._seq += 1
        self.accesses += 1
        policy = self.policy
        if policy.needs_note_access:
            policy.note_access(block, seq)
        position = cache_set.find(block)
        if position >= 0:
            self.hits += 1
            if policy.default_on_hit:
                state = cache_set.touch(position)
            else:
                policy.on_hit(cache_set, position)
                state = cache_set.get(block)
                assert state is not None
            return AccessResult(True, state, set_index)
        self.misses += 1
        result = AccessResult(False, BlockState(block, seq), set_index)
        if cache_set.full:
            victim_position = policy.choose_victim(cache_set)
            victim = cache_set.evict(victim_position)
            result.victim_block = victim.block
        policy.on_fill(cache_set, result.state)
        return result
