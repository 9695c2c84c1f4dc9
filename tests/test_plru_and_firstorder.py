"""Tests for tree-PLRU, cost-aware PLRU, and the first-order CPI model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.firstorder import predict_cycles
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement import LRUPolicy
from repro.cache.replacement.plru import (
    CostAwareTreePLRUPolicy,
    TreePLRUPolicy,
    _TreeState,
)
from repro.config import CacheGeometry
from repro.sim.options import RunOptions
from repro.sim.runner import run_policy
from repro.sim.simulator import Simulator
from repro.workloads import experiment_config


class TestTreeState:
    def test_initial_victim_is_way_zero(self):
        assert _TreeState(4).victim() == 0

    def test_touch_redirects(self):
        tree = _TreeState(4)
        tree.touch(0)
        assert tree.victim() != 0

    def test_round_robin_under_sequential_touches(self):
        tree = _TreeState(4)
        victims = []
        for _ in range(4):
            victim = tree.victim()
            victims.append(victim)
            tree.touch(victim)
        assert sorted(victims) == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40))
    def test_victim_never_most_recent(self, touches):
        tree = _TreeState(8)
        last = None
        for way in touches:
            tree.touch(way)
            last = way
        if last is not None:
            assert tree.victim() != last

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=60))
    def test_victim_always_valid(self, touches):
        tree = _TreeState(16)
        for way in touches:
            tree.touch(way)
        assert 0 <= tree.victim() < 16


class TestTreePLRUPolicy:
    def geometry(self):
        return CacheGeometry(4 * 4 * 64, 64, 4, 1)  # 4 sets x 4 ways

    def test_hit_protects_block(self):
        cache = SetAssociativeCache(self.geometry(), TreePLRUPolicy())
        for block in (0, 4, 8, 12):  # fill set 0
            cache.access(block)
        cache.access(0)  # touch: 0 must not be the victim
        result = cache.access(16)
        assert result.victim_block != 0

    def test_full_lru_behaviour_on_two_ways(self):
        # With 2 ways, tree-PLRU degenerates to exact LRU.
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        plru_cache = SetAssociativeCache(geometry, TreePLRUPolicy())
        lru_cache = SetAssociativeCache(geometry, LRUPolicy())
        import random
        rng = random.Random(4)
        for _ in range(300):
            block = rng.randrange(5)
            assert (
                plru_cache.access(block).hit == lru_cache.access(block).hit
            )

    def test_rejects_non_power_of_two(self):
        geometry = CacheGeometry(3 * 64, 64, 3, 1)
        cache = SetAssociativeCache(geometry, TreePLRUPolicy())
        with pytest.raises(ValueError):
            # The tree is built lazily on the first fill.
            cache.access(0)

    def test_no_duplicate_blocks_under_churn(self):
        import random
        rng = random.Random(7)
        cache = SetAssociativeCache(self.geometry(), TreePLRUPolicy())
        for _ in range(2000):
            cache.access(rng.randrange(64))
        for set_index in range(cache.n_sets):
            ways = cache.set_state(set_index).ways
            assert len({w.block for w in ways}) == len(ways)
            assert len(ways) <= 4

    def test_plru_close_to_lru_end_to_end(self):
        uncached = RunOptions(use_cache=False)
        lru = run_policy("mcf", "lru", scale=0.15, options=uncached)
        plru = run_policy("mcf", "plru", scale=0.15, options=uncached)
        assert plru.ipc == pytest.approx(lru.ipc, rel=0.05)


class TestCostAwarePLRU:
    def test_protects_expensive_block(self):
        geometry = CacheGeometry(4 * 64, 64, 4, 1)
        policy = CostAwareTreePLRUPolicy(protect_threshold=4, max_rejects=3)
        cache = SetAssociativeCache(geometry, policy)
        for block in range(4):
            cache.access(block)
        # Mark the would-be victim as expensive.
        victim_way = policy._tree_for(cache.set_state(0)).victim()
        cache.set_state(0).ways[victim_way].cost_q = 7
        protected_block = cache.set_state(0).ways[victim_way].block
        result = cache.access(10)
        assert result.victim_block != protected_block

    def test_reject_budget_bounds_search(self):
        geometry = CacheGeometry(4 * 64, 64, 4, 1)
        policy = CostAwareTreePLRUPolicy(protect_threshold=1, max_rejects=2)
        cache = SetAssociativeCache(geometry, policy)
        for block in range(4):
            cache.access(block)
        for way in cache.set_state(0).ways:
            way.cost_q = 7  # everything expensive
        result = cache.access(10)  # must still evict something
        assert result.victim_block is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            CostAwareTreePLRUPolicy(protect_threshold=9)
        with pytest.raises(ValueError):
            CostAwareTreePLRUPolicy(max_rejects=-1)

    def test_captures_most_of_lin_gain(self):
        lru = run_policy("mcf", "lru", scale=0.3)
        lin = run_policy("mcf", "lin(4)", scale=0.3)
        cost_plru = run_policy("mcf", "cost-plru", scale=0.3)
        lin_gain = lin.ipc - lru.ipc
        plru_gain = cost_plru.ipc - lru.ipc
        assert lin_gain > 0
        assert plru_gain > 0.5 * lin_gain


class TestFirstOrderModel:
    def test_decomposition_fields(self):
        result = run_policy("lucas", "lru", scale=0.1)
        breakdown = predict_cycles(result, issue_width=8)
        assert breakdown.compute_cycles == pytest.approx(
            result.instructions / 8
        )
        assert breakdown.stall_cycles_from_costs == pytest.approx(
            result.cost_distribution.cost_sum
        )

    def test_model_accuracy_on_suite_members(self):
        for name in ("mcf", "art", "parser"):
            result = run_policy(name, "lru", scale=0.2)
            breakdown = predict_cycles(result)
            assert abs(breakdown.prediction_error) < 0.05, name

    def test_stall_fraction_bounds(self):
        result = run_policy("art", "lru", scale=0.1)
        breakdown = predict_cycles(result)
        assert 0.0 <= breakdown.memory_stall_fraction <= 1.0

    def test_width_validation(self):
        result = run_policy("lucas", "lru", scale=0.05)
        with pytest.raises(ValueError):
            predict_cycles(result, issue_width=0)

    def test_empty_run(self):
        empty = Simulator(experiment_config(), "lru").run([])
        breakdown = predict_cycles(empty)
        assert breakdown.predicted_cpi == 0.0
        assert breakdown.measured_cpi == 0.0

    def test_costmodel_experiment(self):
        from repro.experiments import cost_validation
        text = cost_validation.run(scale=0.05, benchmarks=["lucas"]).render()
        assert "CPI (model)" in text
