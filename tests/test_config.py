"""Tests for the Table 2 machine description."""

import pytest

from repro.config import (
    CacheGeometry,
    MemoryConfig,
    baseline_config,
    scaled_config,
)


class TestCacheGeometry:
    def test_table2_l2_geometry(self):
        l2 = baseline_config().l2
        assert l2.size_bytes == 1024 * 1024
        assert l2.line_bytes == 64
        assert l2.associativity == 16
        assert l2.n_sets == 1024
        assert l2.n_blocks == 16384

    def test_table2_l1_geometry(self):
        config = baseline_config()
        for l1 in (config.l1i, config.l1d):
            assert l1.size_bytes == 16 * 1024
            assert l1.associativity == 4
            assert l1.n_sets == 64

    def test_inconsistent_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 64, 16, 1)

    @pytest.mark.parametrize("size,line,ways", [
        (0, 64, 16),      # no set at all
        (512, 64, 16),    # smaller than one set
        (1024, 0, 16),
        (1024, -64, 16),
        (1024, 64, 0),
        (1024, 64, -4),
    ])
    def test_degenerate_geometry_rejected(self, size, line, ways):
        with pytest.raises(ValueError):
            CacheGeometry(size, line, ways, 1)

    def test_n_blocks_consistency(self):
        geometry = CacheGeometry(8192, 64, 4, 1)
        assert geometry.n_blocks == geometry.n_sets * geometry.associativity


class TestMemoryConfig:
    def test_isolated_miss_latency_is_444(self):
        assert MemoryConfig().isolated_miss_latency == 444

    def test_table2_memory_parameters(self):
        memory = baseline_config().memory
        assert memory.n_banks == 32
        assert memory.dram_access_latency == 400
        assert memory.bus_delay == 44
        assert memory.max_outstanding == 32


class TestBaseline:
    def test_window_and_width(self):
        processor = baseline_config().processor
        assert processor.issue_width == 8
        assert processor.window_size == 128
        assert processor.store_buffer_size == 128

    def test_mshr_entries(self):
        assert baseline_config().mshr.n_entries == 32

    def test_scaled_config_changes_only_l2(self):
        scaled = scaled_config(256)
        base = baseline_config()
        assert scaled.l2.size_bytes == 256 * 1024
        assert scaled.l2.associativity == base.l2.associativity
        assert scaled.l1d == base.l1d
        assert scaled.memory == base.memory

    def test_block_bits(self):
        assert baseline_config().block_bits == 6  # 64B lines
