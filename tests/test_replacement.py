"""Tests for replacement policies: LRU/FIFO/Random, Belady, LIN, CARE."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.block import BlockState
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement import (
    BeladyPolicy,
    FIFOPolicy,
    LINPolicy,
    LRUPolicy,
    RandomPolicy,
)
from repro.cache.replacement.belady import (
    NEVER,
    collapse_consecutive,
    next_use_distances,
)
from repro.cache.sets import CacheSet
from repro.config import CacheGeometry


def make_set(entries):
    """Build a set from (block, cost_q) pairs, first = MRU."""
    cache_set = CacheSet(len(entries))
    for block, cost_q in reversed(entries):
        state = BlockState(block)
        state.cost_q = cost_q
        cache_set.insert_mru(state)
    return cache_set


class TestLRUFamily:
    def test_lru_picks_last_position(self):
        cache_set = make_set([(1, 0), (2, 0), (3, 0)])
        assert LRUPolicy().choose_victim(cache_set) == 2

    def test_fifo_ignores_hits(self):
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        cache = SetAssociativeCache(geometry, FIFOPolicy())
        cache.access(0)
        cache.access(1)
        cache.access(0)  # hit; FIFO must not refresh
        result = cache.access(2)
        assert result.victim_block == 0

    def test_random_is_deterministic_with_seed(self):
        cache_set = make_set([(1, 0), (2, 0), (3, 0), (4, 0)])
        picks_a = [RandomPolicy(seed=9).choose_victim(cache_set) for _ in range(5)]
        picks_b = [RandomPolicy(seed=9).choose_victim(cache_set) for _ in range(5)]
        assert picks_a == picks_b

    def test_random_in_range(self):
        cache_set = make_set([(1, 0), (2, 0)])
        policy = RandomPolicy(seed=3)
        for _ in range(20):
            assert policy.choose_victim(cache_set) in (0, 1)


class TestLIN:
    def test_lambda_zero_degenerates_to_lru(self):
        cache_set = make_set([(1, 7), (2, 3), (3, 0)])
        assert LINPolicy(0).choose_victim(cache_set) == 2

    def test_high_cost_block_protected(self):
        # LRU-position block has cost 7; LIN(4) evicts a cheaper,
        # more recent block instead.
        cache_set = make_set([(1, 0), (2, 0), (3, 7)])
        victim = LINPolicy(4).choose_victim(cache_set)
        assert cache_set.ways[victim].block == 2  # R=1, cost 0 -> score 1

    def test_equation2_argmin(self):
        # Scores with lambda=2: R + 2*cost.
        cache_set = make_set([(1, 1), (2, 0), (3, 2)])
        # R: pos0=2,pos1=1,pos2=0 -> scores: 4, 1, 4 -> victim pos1.
        assert LINPolicy(2).choose_victim(cache_set) == 1

    def test_tie_breaks_toward_smaller_recency(self):
        # lambda=1: scores R + cost: pos0: 2+0=2, pos1: 1+1=2, pos2: 0+2=2.
        cache_set = make_set([(1, 0), (2, 1), (3, 2)])
        assert LINPolicy(1).choose_victim(cache_set) == 2

    def test_uniform_costs_reduce_to_lru(self):
        cache_set = make_set([(1, 5), (2, 5), (3, 5)])
        assert LINPolicy(4).choose_victim(cache_set) == 2

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LINPolicy(-1)

    def test_name_includes_lambda(self):
        assert LINPolicy(3).name == "lin(3)"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=7), min_size=2, max_size=16
        ),
        st.integers(min_value=0, max_value=8),
    )
    def test_victim_minimizes_score(self, costs, lam):
        cache_set = make_set([(i, c) for i, c in enumerate(costs)])
        victim = LINPolicy(lam).choose_victim(cache_set)
        scores = [
            cache_set.recency(p) + lam * c for p, c in enumerate(costs)
        ]
        assert scores[victim] == min(scores)


class TestBelady:
    def test_next_use_distances(self):
        assert next_use_distances([1, 2, 1, 3, 2]) == [2, 4, NEVER, NEVER, NEVER]

    def test_collapse_consecutive(self):
        assert collapse_consecutive([1, 1, 2, 2, 2, 1]) == [1, 2, 1]

    def test_opt_on_classic_sequence(self):
        # Classic example: 2-way cache, sequence 1 2 3 1 2.
        blocks = [1, 2, 3, 1, 2]
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        policy = BeladyPolicy(next_use_distances(blocks), expected_blocks=blocks)
        cache = SetAssociativeCache(geometry, policy)
        outcomes = [cache.access(b).hit for b in blocks]
        # OPT: misses 1,2,3 (3 evicts 2? no: evicts the farthest = 2's
        # next use at 4 vs 1's at 3 -> evicts 2... then 1 hits, 2 misses.
        assert outcomes == [False, False, False, True, False]
        assert cache.misses == 4

    def test_opt_never_worse_than_lru(self):
        import random
        rng = random.Random(5)
        blocks = [rng.randrange(8) for _ in range(400)]
        geometry = CacheGeometry(4 * 64, 64, 4, 1)
        lru_cache = SetAssociativeCache(geometry, LRUPolicy())
        opt_policy = BeladyPolicy(
            next_use_distances(blocks), expected_blocks=blocks
        )
        opt_cache = SetAssociativeCache(geometry, opt_policy)
        for block in blocks:
            lru_cache.access(block)
            opt_cache.access(block)
        assert opt_cache.misses <= lru_cache.misses

    def test_oracle_desync_detected(self):
        policy = BeladyPolicy([NEVER, NEVER], expected_blocks=[1, 2])
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        cache = SetAssociativeCache(geometry, policy)
        with pytest.raises(ValueError):
            cache.access(9)

    def test_oracle_horizon_enforced(self):
        policy = BeladyPolicy([NEVER])
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        cache = SetAssociativeCache(geometry, policy)
        cache.access(1)
        with pytest.raises(IndexError):
            cache.access(2)
