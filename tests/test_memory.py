"""Tests for the DRAM bank array, bus, and memory controller."""

import pytest

from repro.config import MemoryConfig
from repro.memory.bus import SplitTransactionBus
from repro.memory.controller import MemoryController
from repro.memory.dram import DramBankArray


class TestDramBankArray:
    def test_uncontended_access_latency(self):
        banks = DramBankArray(4, 400)
        assert banks.access(0, 100.0) == 500.0

    def test_same_bank_conflicts_serialize(self):
        banks = DramBankArray(4, 400)
        first = banks.access(0, 0.0)
        second = banks.access(4, 0.0)  # block 4 maps to bank 0 too
        assert first == 400.0
        assert second == 800.0
        assert banks.conflicts == 1

    def test_different_banks_overlap(self):
        banks = DramBankArray(4, 400)
        assert banks.access(0, 0.0) == 400.0
        assert banks.access(1, 0.0) == 400.0
        assert banks.conflicts == 0

    def test_bank_mapping_low_order_interleave(self):
        banks = DramBankArray(32, 400)
        assert banks.bank_of(33) == 1
        assert banks.bank_of(64) == 0

    def test_conflict_rate(self):
        banks = DramBankArray(1, 10)
        banks.access(0, 0.0)
        banks.access(1, 0.0)
        assert banks.conflict_rate == 0.5

    def test_reset(self):
        banks = DramBankArray(2, 100)
        banks.access(0, 0.0)
        banks.reset()
        assert banks.accesses == 0
        assert banks.access(0, 0.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DramBankArray(0, 400)
        with pytest.raises(ValueError):
            DramBankArray(4, 0)


class TestBus:
    def test_uncontended_transfer(self):
        bus = SplitTransactionBus(44, 16)
        assert bus.transfer(100.0) == 144.0

    def test_back_to_back_transfers_pipeline(self):
        bus = SplitTransactionBus(44, 16)
        first = bus.transfer(0.0)
        second = bus.transfer(0.0)
        assert first == 44.0
        assert second == 16.0 + 44.0
        assert bus.contended == 1

    def test_idle_bus_no_contention(self):
        bus = SplitTransactionBus(44, 16)
        bus.transfer(0.0)
        bus.transfer(1000.0)
        assert bus.contended == 0

    def test_occupancy_validation(self):
        with pytest.raises(ValueError):
            SplitTransactionBus(10, 16)  # delay shorter than occupancy
        with pytest.raises(ValueError):
            SplitTransactionBus(44, 0)

    def test_contention_rate(self):
        bus = SplitTransactionBus(44, 16)
        assert bus.contention_rate == 0.0
        bus.transfer(0.0)
        bus.transfer(0.0)
        assert bus.contention_rate == 0.5


class TestMemoryController:
    def test_isolated_read_takes_444_cycles(self):
        controller = MemoryController(MemoryConfig())
        assert controller.read_line(0, 0.0) == 444.0
        assert controller.isolated_latency == 444

    def test_parallel_reads_overlap_on_banks(self):
        controller = MemoryController(MemoryConfig())
        first = controller.read_line(0, 0.0)
        second = controller.read_line(1, 0.0)
        # Both DRAM accesses overlap; the bus serializes by 16 cycles.
        assert first == 444.0
        assert second == 460.0

    def test_bank_conflict_serializes(self):
        controller = MemoryController(MemoryConfig())
        first = controller.read_line(0, 0.0)
        second = controller.read_line(32, 0.0)  # same bank
        assert second - first == 400.0

    def test_outstanding_limit_queues(self):
        config = MemoryConfig(max_outstanding=2)
        controller = MemoryController(config)
        controller.read_line(0, 0.0)
        controller.read_line(1, 0.0)
        third = controller.read_line(2, 0.0)
        # The third request waits for the first completion (444).
        assert third >= 444.0 + 400.0
        assert controller.queueing_stalls >= 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_outstanding_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError):
            MemoryController(MemoryConfig(max_outstanding=limit))

    def test_writebacks_counted(self):
        controller = MemoryController(MemoryConfig())
        controller.write_line(0, 0.0)
        assert controller.writebacks == 1
        assert controller.requests == 1

    def test_writeback_occupies_bank_and_bus(self):
        controller = MemoryController(MemoryConfig())
        controller.write_line(0, 0.0)
        # A read to the same bank right after queues behind the write.
        read = controller.read_line(32, 0.0)
        assert read > 444.0

    def test_reset(self):
        controller = MemoryController(MemoryConfig())
        controller.read_line(0, 0.0)
        controller.reset()
        assert controller.requests == 0
        assert controller.read_line(0, 0.0) == 444.0
