"""Recency-based baseline policies: LRU, FIFO, Random.

LRU is the paper's baseline (Equation 1): the victim is the block with
the least recency.  FIFO and Random are sanity baselines used in tests
and ablations.
"""

from __future__ import annotations

import random

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet


class LRUPolicy(ReplacementPolicy):
    """Least Recently Used: ``victim = argmin R(i)`` (Equation 1)."""

    name = "lru"

    def choose_victim(self, cache_set: CacheSet) -> int:
        return len(cache_set.ways) - 1


class FIFOPolicy(ReplacementPolicy):
    """First-In First-Out: evict the oldest fill; hits do not promote."""

    name = "fifo"

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        pass  # FIFO ignores reuse.

    def choose_victim(self, cache_set: CacheSet) -> int:
        oldest_position = 0
        oldest_seq = cache_set.ways[0].fill_seq
        for position, state in enumerate(cache_set.ways):
            if state.fill_seq < oldest_seq:
                oldest_seq = state.fill_seq
                oldest_position = position
        return oldest_position


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim; deterministic under a fixed seed."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        pass  # Recency is irrelevant to random replacement.

    def choose_victim(self, cache_set: CacheSet) -> int:
        return self._rng.randrange(len(cache_set.ways))
