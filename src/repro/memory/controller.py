"""Memory controller: glues the DRAM bank array to the data bus.

The controller accepts line-fill and writeback requests and returns
completion times.  It enforces the Table 2 limit of 32 outstanding
requests by tracking in-flight completions; a request that arrives when
the controller is saturated is delayed until the oldest in-flight
request completes (queueing delay).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List

from repro.config import MemoryConfig
from repro.memory.bus import SplitTransactionBus
from repro.memory.dram import DramBankArray, RowBufferBankArray


class MemoryController:
    """Timing model for the path L2 -> DRAM -> bus -> L2."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        if config.row_buffer:
            self.banks = RowBufferBankArray(
                config.n_banks,
                config.dram_access_latency,
                config.row_hit_latency,
                config.row_blocks,
            )
        else:
            self.banks = DramBankArray(
                config.n_banks, config.dram_access_latency
            )
        self.bus = SplitTransactionBus(config.bus_delay, config.bus_occupancy)
        if config.max_outstanding < 1:
            raise ValueError("memory needs at least one outstanding request")
        self.max_outstanding = config.max_outstanding
        self._in_flight: List[float] = []  # heap of completion times
        self.requests = 0
        self.writebacks = 0
        self.queueing_stalls = 0
        self.peak_in_flight = 0
        #: Optional :class:`repro.obs.Observer`; queue-full waits are
        #: reported when set.
        self.observer = None

    def read_line(self, block: int, when: float) -> float:
        """Fetch cache block ``block``; return the fill-complete time."""
        when = self._admit(when)
        data_ready = self.banks.access(block, when)
        complete = self.bus.transfer(data_ready)
        heappush(self._in_flight, complete)
        if len(self._in_flight) > self.peak_in_flight:
            self.peak_in_flight = len(self._in_flight)
        self.requests += 1
        return complete

    def write_line(self, block: int, when: float) -> float:
        """Write back a dirty line; returns when the bank is updated.

        Writebacks consume bank and bus bandwidth (perturbing demand
        traffic) but the core never waits for them.
        """
        when = self._admit(when)
        # The line crosses the bus to memory first, then updates the bank.
        arrive = self.bus.transfer(when)
        complete = self.banks.access(block, arrive)
        heappush(self._in_flight, complete)
        if len(self._in_flight) > self.peak_in_flight:
            self.peak_in_flight = len(self._in_flight)
        self.requests += 1
        self.writebacks += 1
        return complete

    def _admit(self, when: float) -> float:
        """Delay ``when`` until an outstanding-request slot is free."""
        in_flight = self._in_flight
        while in_flight and in_flight[0] <= when:
            heappop(in_flight)
        while len(in_flight) >= self.max_outstanding:
            earliest = heappop(in_flight)
            if earliest > when:
                when = earliest
                self.queueing_stalls += 1
                if self.observer is not None:
                    self.observer.memory_queue_full(when)
        return when

    def reset(self) -> None:
        self.banks.reset()
        self.bus.reset()
        self._in_flight = []
        self.requests = 0
        self.writebacks = 0
        self.queueing_stalls = 0
        self.peak_in_flight = 0

    @property
    def isolated_latency(self) -> int:
        """Service time of a miss with an idle memory system (444)."""
        return self.config.isolated_miss_latency
