"""Stride prefetcher substrate.

The paper's related-work section frames prefetching as one of the
techniques that *create* MLP ("techniques such as non-blocking caches,
... and prefetching improve performance by parallelizing long-latency
memory operations").  This module provides a classic reference
-prediction-table stride prefetcher so the interaction between
prefetching and MLP-aware replacement can be studied (see
``python -m repro.experiments prefetch``): a prefetcher that converts
isolated misses into overlapped ones shrinks exactly the cost
differential LIN feeds on.

The table is PC-less (indexed by block region) since traces carry no
PCs: each region tracks its last block and stride, with a 2-bit
confidence counter; on a confident match, the next ``degree`` blocks
along the stride are predicted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class StridePrefetcher:
    """Region-based stride predictor with confidence counters."""

    def __init__(
        self,
        n_entries: int = 256,
        region_blocks: int = 4096,
        degree: int = 2,
        confidence_threshold: int = 2,
    ) -> None:
        if n_entries < 1 or degree < 1:
            raise ValueError("entries and degree must be positive")
        self.n_entries = n_entries
        self.region_blocks = region_blocks
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        # region -> (last block, stride, confidence)
        self._table: Dict[int, Tuple[int, int, int]] = {}
        self._order: List[int] = []  # FIFO replacement of regions
        self.predictions = 0
        self.trainings = 0

    def _region_of(self, block: int) -> int:
        return block // self.region_blocks

    def observe(self, block: int) -> List[int]:
        """Train on one demand access; return blocks to prefetch."""
        self.trainings += 1
        region = self._region_of(block)
        entry = self._table.get(region)
        prefetches: List[int] = []
        if entry is None:
            self._install(region, (block, 0, 0))
            return prefetches
        last, stride, confidence = entry
        new_stride = block - last
        if new_stride == 0:
            return prefetches
        if new_stride == stride:
            confidence = min(confidence + 1, 3)
        else:
            confidence = max(confidence - 1, 0)
            if confidence == 0:
                stride = new_stride
        self._table[region] = (block, stride, confidence)
        if confidence >= self.confidence_threshold and stride != 0:
            for ahead in range(1, self.degree + 1):
                candidate = block + stride * ahead
                if candidate >= 0:
                    prefetches.append(candidate)
            self.predictions += len(prefetches)
        return prefetches

    def _install(self, region: int, entry: Tuple[int, int, int]) -> None:
        if region not in self._table and len(self._table) >= self.n_entries:
            oldest = self._order.pop(0)
            del self._table[oldest]
        if region not in self._table:
            self._order.append(region)
        self._table[region] = entry

    @property
    def table_occupancy(self) -> int:
        return len(self._table)


def prefetcher_for(degree: Optional[int]) -> Optional[StridePrefetcher]:
    """The prefetcher a simulation cell's ``prefetch_degree`` names.

    A default :class:`StridePrefetcher` of that degree, or None for a
    cell without one.
    """
    return StridePrefetcher(degree=degree) if degree is not None else None
