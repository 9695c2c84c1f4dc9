"""Tests for the analysis toolkit: attribution, reuse, residency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.attribution import attach_classifier, classify_block
from repro.analysis.residency import snapshot_cache
from repro.analysis.reuse import COLD, ReuseProfile, reuse_distance_profile
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement import LRUPolicy
from repro.config import CacheGeometry
from repro.sim.simulator import Simulator
from repro.trace.record import Access
from repro.workloads import build_workload, experiment_config


class TestClassifier:
    def test_engine_namespaces(self):
        assert classify_block(100) == "stream"
        assert classify_block((1 << 24) + 5) == "isolated"
        assert classify_block((1 << 25) + 5) == "transient"
        assert classify_block((5 << 23) + 5) == "flip"
        assert classify_block((7 << 23) + 5) == "companion"
        assert classify_block((3 << 24) + 5) == "cold"

    def test_phase_namespaces_fold(self):
        base = 2 << 26  # phase namespace 2
        assert classify_block(base + 100) == "stream"
        assert classify_block(base + (1 << 24)) == "isolated"


class TestAttribution:
    def test_counts_accesses_and_misses(self):
        simulator = Simulator(experiment_config(), "lru")
        run = attach_classifier(simulator)
        simulator.run(build_workload("mcf", 0.05).to_accesses())
        assert "stream" in run.classes
        stream = run.classes["stream"]
        assert stream.accesses > 0
        assert 0 <= stream.misses <= stream.accesses

    def test_costs_attributed(self):
        simulator = Simulator(experiment_config(), "lru")
        run = attach_classifier(simulator)
        result = simulator.run(build_workload("mcf", 0.05).to_accesses())
        total_cost = sum(s.cost_sum for s in run.classes.values())
        assert total_cost == pytest.approx(
            result.cost_distribution.cost_sum
        )

    def test_isolated_class_has_high_cost(self):
        simulator = Simulator(experiment_config(), "lru")
        run = attach_classifier(simulator)
        simulator.run(build_workload("mcf", 0.2).to_accesses())
        isolated = run.classes["isolated"]
        stream = run.classes["stream"]
        assert isolated.avg_cost > stream.avg_cost + 100

    def test_table_rows(self):
        simulator = Simulator(experiment_config(), "lru")
        run = attach_classifier(simulator)
        simulator.run(build_workload("lucas", 0.02).to_accesses())
        rows = run.table()
        assert rows
        assert all(len(row) == 5 for row in rows)


class TestReuseDistance:
    def profile(self, blocks):
        trace = [Access(block * 64) for block in blocks]
        return reuse_distance_profile(trace)

    def test_first_touches_are_cold(self):
        profile = self.profile([1, 2, 3])
        assert profile.cold_accesses == 3
        assert len(profile.distances) == 0

    def test_immediate_reuse_distance_zero(self):
        profile = self.profile([1, 1])
        assert profile.distances == (0,)

    def test_classic_distances(self):
        # a b c a : the reuse of 'a' has seen 2 distinct blocks.
        profile = self.profile([1, 2, 3, 1])
        assert profile.distances == (2,)

    def test_repeated_pattern(self):
        profile = self.profile([1, 2, 1, 2, 1])
        assert profile.distances == (1, 1, 1)

    def test_miss_rate_prediction_matches_lru_cache(self):
        # Fully-associative LRU of capacity C must agree exactly with
        # the stack-distance prediction.
        import random
        rng = random.Random(3)
        blocks = [rng.randrange(12) for _ in range(400)]
        profile = self.profile(blocks)
        capacity = 8
        geometry = CacheGeometry(capacity * 64, 64, capacity, 1)
        cache = SetAssociativeCache(geometry, LRUPolicy())
        for block in blocks:
            cache.access(block)
        assert profile.miss_rate_at(capacity) == pytest.approx(
            cache.misses / cache.accesses
        )

    def test_miss_rate_monotone_in_capacity(self):
        import random
        rng = random.Random(9)
        profile = self.profile([rng.randrange(50) for _ in range(500)])
        rates = [profile.miss_rate_at(c) for c in (1, 4, 16, 64)]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_percentile(self):
        profile = ReuseProfile(distances=(1, 2, 3, 4, 100), cold_accesses=0)
        assert profile.percentile(0.0) == 1
        assert profile.percentile(1.0) == 100
        with pytest.raises(ValueError):
            profile.percentile(1.5)

    def test_histogram_overflow_bucket(self):
        profile = ReuseProfile(distances=(1, 5, 500), cold_accesses=0)
        counts = profile.histogram([0, 10, 100])
        assert counts == [2, 0, 1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
    def test_distances_bounded_by_footprint(self, blocks):
        profile = self.profile(blocks)
        footprint = len(set(blocks))
        assert all(0 <= d < footprint for d in profile.distances)
        assert profile.cold_accesses == footprint

    def test_cold_constant(self):
        assert COLD == -1


class TestResidency:
    def test_snapshot_counts(self):
        geometry = CacheGeometry(4 * 2 * 64, 64, 2, 1)
        cache = SetAssociativeCache(geometry, LRUPolicy())
        cache.access(0, is_write=True)
        cache.access(1)
        snapshot = snapshot_cache(cache)
        assert snapshot.n_resident == 2
        assert snapshot.dirty_blocks == 1
        assert snapshot.occupancy == pytest.approx(2 / 8)
        assert snapshot.per_set_occupancy[0] == 1

    def test_cost_histogram(self):
        geometry = CacheGeometry(4 * 2 * 64, 64, 2, 1)
        cache = SetAssociativeCache(geometry, LRUPolicy())
        cache.access(0).state.cost_q = 7
        cache.access(1).state.cost_q = 2
        snapshot = snapshot_cache(cache)
        assert snapshot.cost_q_histogram == {7: 1, 2: 1}
        assert snapshot.avg_cost_q == pytest.approx(4.5)
        assert snapshot.fraction_at_cost(7) == pytest.approx(0.5)

    def test_empty_cache(self):
        geometry = CacheGeometry(4 * 2 * 64, 64, 2, 1)
        snapshot = snapshot_cache(SetAssociativeCache(geometry, LRUPolicy()))
        assert snapshot.n_resident == 0
        assert snapshot.avg_cost_q == 0.0
        assert snapshot.fraction_at_cost(7) == 0.0

    def test_poisoning_visible_in_snapshot(self):
        # Under LIN on mgrid, a large share of resident blocks carries
        # maximal cost_q (the pinning the paper's Section 5.2 blames).
        simulator = Simulator(experiment_config(), "lin(4)")
        simulator.run(build_workload("mgrid", 0.4).to_accesses())
        lin_snapshot = snapshot_cache(simulator.l2)
        baseline = Simulator(experiment_config(), "lru")
        baseline.run(build_workload("mgrid", 0.4).to_accesses())
        lru_snapshot = snapshot_cache(baseline.l2)
        assert (
            lin_snapshot.fraction_at_cost(7)
            > lru_snapshot.fraction_at_cost(7) + 0.1
        )
