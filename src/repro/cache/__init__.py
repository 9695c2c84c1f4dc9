"""Cache substrate: tag stores, sets, and the replacement framework.

A :class:`~repro.cache.cache.SetAssociativeCache` is a pure tag store
(a timing simulator never needs the data), so the same class serves as
the paper's Main Tag Directory (MTD) and — instantiated sparsely — as
the Auxiliary Tag Directories (ATDs) of Section 6.

Replacement policies live in :mod:`repro.cache.replacement`; the cache
asks its policy for a victim and notifies it of hits and fills, so any
cost-sensitive scheme (the CARE engine of Figure 3a) plugs in without
touching the cache itself.
"""

from repro.cache.block import BlockState
from repro.cache.sets import CacheSet
from repro.cache.cache import AccessResult, SetAssociativeCache
from repro.cache.tag_directory import SparseTagDirectory
from repro.cache.replacement import (
    BeladyPolicy,
    FIFOPolicy,
    LINPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
)

__all__ = [
    "BlockState",
    "CacheSet",
    "SetAssociativeCache",
    "SparseTagDirectory",
    "AccessResult",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "BeladyPolicy",
    "LINPolicy",
]
