"""Tests for the extension substrates: prefetcher, DIP family,
row-buffer DRAM, and their experiments."""

import pytest
from dataclasses import replace

from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.dip import BIPPolicy, DIPController, LIPPolicy
from repro.cache.replacement.registry import parse_policy_spec
from repro.config import CacheGeometry, MemoryConfig
from repro.cpu.prefetch import StridePrefetcher
from repro.memory.dram import RowBufferBankArray
from repro.sim.simulator import Simulator
from repro.trace.synthetic import TraceBuilder
from repro.workloads import build_workload, experiment_config


class TestStridePrefetcher:
    def test_learns_unit_stride(self):
        prefetcher = StridePrefetcher(degree=2)
        predictions = []
        for block in range(10):
            predictions = prefetcher.observe(block)
        assert predictions == [10, 11]

    def test_learns_negative_stride(self):
        prefetcher = StridePrefetcher(degree=1)
        predictions = []
        for block in range(100, 80, -2):
            predictions = prefetcher.observe(block)
        assert predictions == [80]

    def test_needs_confidence(self):
        prefetcher = StridePrefetcher(degree=1, confidence_threshold=2)
        assert prefetcher.observe(0) == []
        assert prefetcher.observe(1) == []   # stride learned, conf 0->?
        # After a couple of confirmations the prediction fires.
        fired = False
        for block in range(2, 8):
            if prefetcher.observe(block):
                fired = True
                break
        assert fired

    def test_random_stream_stays_quiet(self):
        import random
        rng = random.Random(3)
        prefetcher = StridePrefetcher(degree=2)
        fired = 0
        for _ in range(300):
            fired += len(prefetcher.observe(rng.randrange(10_000_000)))
        assert fired < 30  # <5% of a confident stream's rate

    def test_table_capacity_fifo(self):
        prefetcher = StridePrefetcher(n_entries=2, region_blocks=10)
        for region in range(5):
            prefetcher.observe(region * 10)
        assert prefetcher.table_occupancy == 2

    def test_never_predicts_negative_blocks(self):
        prefetcher = StridePrefetcher(degree=4)
        for block in range(40, 0, -10):
            predictions = prefetcher.observe(block)
        assert all(candidate >= 0 for candidate in predictions)

    def test_validation(self):
        with pytest.raises(ValueError):
            StridePrefetcher(n_entries=0)
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestPrefetchIntegration:
    def test_prefetching_reduces_stream_misses(self):
        plain = Simulator(experiment_config(), "lru")
        plain_result = plain.run(build_workload("art", 0.15).to_accesses())
        prefetched = Simulator(
            experiment_config(), "lru", prefetcher=StridePrefetcher(degree=2)
        )
        prefetched_result = prefetched.run(
            build_workload("art", 0.15).to_accesses()
        )
        assert prefetched.prefetches_issued > 1000
        assert (
            prefetched_result.demand_misses < plain_result.demand_misses * 0.8
        )
        assert prefetched_result.ipc > plain_result.ipc

    def test_prefetches_are_not_demand_misses(self):
        simulator = Simulator(
            experiment_config(), "lru", prefetcher=StridePrefetcher()
        )
        result = simulator.run(build_workload("art", 0.1).to_accesses())
        # Demand misses + prefetch fills = total L2 install traffic.
        assert result.l2_misses >= result.demand_misses

    def test_duplicate_prefetches_suppressed(self):
        simulator = Simulator(experiment_config(), "lru")
        simulator.l2.access(42)  # resident
        simulator._prefetch_block(42, 10.0)
        assert simulator.prefetch_hits_suppressed == 1
        assert simulator.prefetches_issued == 0
        simulator._prefetch_block(43, 10.0)
        assert simulator.prefetches_issued == 1
        # In flight now: a repeat prefetch is suppressed too.
        simulator._prefetch_block(43, 11.0)
        assert simulator.prefetch_hits_suppressed == 2


class TestDIPFamily:
    def geometry(self):
        return CacheGeometry(4 * 2 * 64, 64, 2, 1)

    def test_lip_inserts_at_lru(self):
        cache = SetAssociativeCache(self.geometry(), LIPPolicy())
        cache.access(0)
        cache.access(4)
        # Block 4 went to the LRU slot, so it is the next victim.
        result = cache.access(8)
        assert result.victim_block == 4

    def test_lip_promotes_on_reuse(self):
        cache = SetAssociativeCache(self.geometry(), LIPPolicy())
        cache.access(0)
        cache.access(4)
        cache.access(4)  # promoted to MRU
        result = cache.access(8)
        assert result.victim_block == 0

    def test_bip_occasionally_inserts_mru(self):
        policy = BIPPolicy(epsilon=0.5)  # every 2nd fill at MRU
        cache = SetAssociativeCache(self.geometry(), policy)
        cache.access(0)   # fill 1 -> LRU slot
        cache.access(4)   # fill 2 -> MRU
        result = cache.access(8)  # fill 3 -> LRU; victim chosen first
        assert result.victim_block == 0

    def test_bip_epsilon_validation(self):
        with pytest.raises(ValueError):
            BIPPolicy(epsilon=0.0)

    def test_lip_beats_lru_on_thrash(self):
        # Cyclic sweep of 3 blocks through a 2-way set: LRU gets 0%
        # hits, LIP retains a resident subset.
        geometry = CacheGeometry(2 * 64, 64, 2, 1)
        from repro.cache.replacement import LRUPolicy

        lru = SetAssociativeCache(geometry, LRUPolicy())
        lip = SetAssociativeCache(geometry, LIPPolicy())
        for _ in range(50):
            for block in range(3):
                lru.access(block)
                lip.access(block)
        assert lip.hits > lru.hits

    @pytest.mark.parametrize("n_sets, n_leaders", [(1, 32), (0, 32), (64, 0)])
    def test_dip_rejects_a_shape_it_cannot_hold(self, n_sets, n_leaders):
        # One set leaves no room for a leader of each policy.
        with pytest.raises(ValueError):
            DIPController(n_sets, 16, n_leaders=n_leaders)

    def test_dip_controller_interface(self):
        controller = DIPController(64, 4, n_leaders=8)
        lru_leader = next(iter(controller.lru_leaders))
        bip_leader = next(iter(controller.bip_leaders))
        assert controller.policy_for_set(lru_leader) is controller.lru
        assert controller.policy_for_set(bip_leader) is controller.bip
        assert not (controller.lru_leaders & controller.bip_leaders)

    def test_dip_duel_moves_psel(self):
        controller = DIPController(64, 4, n_leaders=8)
        from repro.cache.block import BlockState
        from repro.cache.cache import AccessResult

        lru_leader = next(iter(controller.lru_leaders))
        miss = AccessResult(False, BlockState(0), lru_leader)
        before = controller.psel.value
        controller.observe_access(lru_leader, 0, miss)
        assert controller.psel.value == before + 1
        hit = AccessResult(True, BlockState(0), lru_leader)
        controller.observe_access(lru_leader, 0, hit)
        assert controller.psel.value == before + 1  # hits don't count

    def test_dip_follower_obeys_psel(self):
        controller = DIPController(64, 4, n_leaders=8)
        follower = next(
            s for s in range(64)
            if s not in controller.lru_leaders
            and s not in controller.bip_leaders
        )
        controller.psel.decrement(2048)
        assert controller.policy_for_set(follower) is controller.lru
        controller.psel.increment(4096)
        assert controller.policy_for_set(follower) is controller.bip

    def test_policy_specs(self, small_machine):
        for spec, expect in (
            ("lip", LIPPolicy),
            ("bip", BIPPolicy),
        ):
            fixed, controller = parse_policy_spec(spec, small_machine)
            assert isinstance(fixed, expect)
        fixed, controller = parse_policy_spec("dip", small_machine)
        assert isinstance(controller, DIPController)

    def test_dip_end_to_end_beats_lru_on_thrash(self):
        lru = Simulator(experiment_config(), "lru").run(
            build_workload("art", 0.2).to_accesses()
        )
        dip = Simulator(experiment_config(), "dip").run(
            build_workload("art", 0.2).to_accesses()
        )
        assert dip.ipc > lru.ipc


class TestRowBufferDram:
    def test_row_hit_is_faster(self):
        banks = RowBufferBankArray(4, 400, row_hit_latency=140, row_blocks=8)
        first = banks.access(0, 0.0)
        second = banks.access(4, first)  # same bank 0, same row
        assert first == 400.0
        assert second - first == 140.0
        assert banks.row_hits == 1

    def test_row_conflict_pays_full_latency(self):
        banks = RowBufferBankArray(4, 400, row_hit_latency=140, row_blocks=8)
        first = banks.access(0, 0.0)
        far = banks.access(4 * 8 * 4, first)  # bank 0, different row
        assert far - first == 400.0
        assert banks.row_hits == 0

    def test_row_mapping(self):
        banks = RowBufferBankArray(4, 400, row_blocks=8)
        assert banks.row_of(0) == 0
        assert banks.row_of(4 * 7) == 0   # 7th block of bank 0, row 0
        assert banks.row_of(4 * 8) == 1   # 8th block of bank 0, row 1

    def test_reset_closes_rows(self):
        banks = RowBufferBankArray(2, 400)
        banks.access(0, 0.0)
        banks.reset()
        banks.access(0, 0.0)
        assert banks.row_hits == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RowBufferBankArray(4, 400, row_hit_latency=500)
        with pytest.raises(ValueError):
            RowBufferBankArray(4, 400, row_blocks=0)

    def test_controller_uses_row_buffer_when_configured(self):
        from repro.memory.controller import MemoryController

        controller = MemoryController(MemoryConfig(row_buffer=True))
        assert isinstance(controller.banks, RowBufferBankArray)

    def test_streaming_benefits_end_to_end(self):
        flat_config = experiment_config()
        row_config = replace(
            flat_config, memory=MemoryConfig(row_buffer=True)
        )
        builder = TraceBuilder()
        for start in range(0, 8000, 8):
            builder.burst(list(range(start, start + 8)), lead_gap=200)
        flat = Simulator(flat_config, "lru").run(builder.build())
        builder = TraceBuilder()
        for start in range(0, 8000, 8):
            builder.burst(list(range(start, start + 8)), lead_gap=200)
        rows = Simulator(row_config, "lru").run(builder.build())
        assert rows.ipc > flat.ipc
        assert rows.avg_mlp_cost < flat.avg_mlp_cost


class TestExtensionExperiments:
    def test_dip_experiment(self):
        from repro.experiments import dip_comparison
        from repro.sim.runner import clear_cache

        clear_cache()
        text = dip_comparison.run(scale=0.05, benchmarks=["art"]).render()
        assert "lip" in text and "dip" in text

    def test_prefetch_experiment(self):
        from repro.experiments import prefetch_interaction

        text = prefetch_interaction.run(
            scale=0.05, benchmarks=["art"]
        ).render()
        assert "pf coverage" in text

    def test_sensitivity_experiment(self):
        from repro.experiments import sensitivity

        text = sensitivity.run(scale=0.05, benchmarks=["lucas"]).render()
        assert "MSHR" in text
