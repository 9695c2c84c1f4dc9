"""DRAM bank array with bank-conflict and queueing modeling.

The paper's memory has 32 banks with a 400-cycle access latency.  A bank
services one request at a time; requests to a busy bank queue behind it
(this is what serializes "parallel" misses that collide on a bank and
produces the long tail in the Figure 2 mlp-cost distributions).
"""

from __future__ import annotations

from typing import List


class DramBankArray:
    """Fixed-latency DRAM banks addressed by block number.

    The array is a pure timing model: :meth:`access` returns when the
    requested line's data is ready, given the request time and any
    queueing behind earlier requests to the same bank.
    """

    def __init__(self, n_banks: int, access_latency: int) -> None:
        if n_banks < 1:
            raise ValueError("need at least one bank")
        if access_latency < 1:
            raise ValueError("access latency must be positive")
        self.n_banks = n_banks
        self.access_latency = access_latency
        self._bank_free: List[float] = [0.0] * n_banks
        self.accesses = 0
        self.conflicts = 0

    def bank_of(self, block: int) -> int:
        """Bank that owns cache block number ``block`` (low-order interleave)."""
        return block % self.n_banks

    def access(self, block: int, when: float) -> float:
        """Issue an access at time ``when``; return data-ready time.

        The bank is busy for the full access, so a second request to the
        same bank starts only after the first finishes (a bank conflict).
        """
        bank = self.bank_of(block)
        start = self._bank_free[bank]
        if start > when:
            self.conflicts += 1
        else:
            start = when
        ready = start + self.access_latency
        self._bank_free[bank] = ready
        self.accesses += 1
        return ready

    def reset(self) -> None:
        """Forget all timing state (for reuse across simulations)."""
        self._bank_free = [0.0] * self.n_banks
        self.accesses = 0
        self.conflicts = 0

    @property
    def conflict_rate(self) -> float:
        """Fraction of accesses that queued behind a busy bank."""
        if not self.accesses:
            return 0.0
        return self.conflicts / self.accesses


class RowBufferBankArray(DramBankArray):
    """DRAM banks with an open-page row-buffer model.

    A refinement beyond the paper's flat 400-cycle access: each bank
    keeps its last-accessed row open; a second access to the same row
    skips precharge+activate and completes in ``row_hit_latency``
    cycles.  Spatially sequential bursts therefore stream from the row
    buffer — which *increases* effective MLP for array traffic, one of
    the second-order effects the sensitivity experiments probe.

    Rows are ``row_blocks`` consecutive blocks of one bank's address
    stream (bank-interleaved at block granularity, so block ``b`` of
    bank ``k`` sits in row ``(b // n_banks) // row_blocks``).
    """

    def __init__(
        self,
        n_banks: int,
        access_latency: int,
        row_hit_latency: int = 140,
        row_blocks: int = 32,
    ) -> None:
        super().__init__(n_banks, access_latency)
        if not 0 < row_hit_latency <= access_latency:
            raise ValueError(
                "row-hit latency must be positive and not exceed the "
                "row-miss latency"
            )
        if row_blocks < 1:
            raise ValueError("rows must hold at least one block")
        self.row_hit_latency = row_hit_latency
        self.row_blocks = row_blocks
        self._open_row: List[int] = [-1] * n_banks
        self.row_hits = 0

    def row_of(self, block: int) -> int:
        return (block // self.n_banks) // self.row_blocks

    def access(self, block: int, when: float) -> float:
        bank = self.bank_of(block)
        row = self.row_of(block)
        start = self._bank_free[bank]
        if start > when:
            self.conflicts += 1
        else:
            start = when
        if self._open_row[bank] == row:
            latency = self.row_hit_latency
            self.row_hits += 1
        else:
            latency = self.access_latency
            self._open_row[bank] = row
        ready = start + latency
        self._bank_free[bank] = ready
        self.accesses += 1
        return ready

    def reset(self) -> None:
        super().reset()
        self._open_row = [-1] * self.n_banks
        self.row_hits = 0
