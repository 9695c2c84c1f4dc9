"""Replacement-policy protocol.

A policy is a stateless-per-set strategy object: the cache owns the
recency ordering (:class:`~repro.cache.sets.CacheSet` keeps ways MRU
first) and consults the policy at the three interesting moments: hit,
victim selection, and fill.  Policies that need global knowledge
(Belady's OPT) additionally observe every access through
:meth:`ReplacementPolicy.note_access`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.cache.block import BlockState
from repro.cache.sets import CacheSet


class ReplacementPolicy(ABC):
    """Strategy interface consulted by :class:`SetAssociativeCache`."""

    #: Short name used in reports ("lru", "lin(4)", ...).
    name = "abstract"

    #: Hot-path dispatch flags, recomputed automatically for every
    #: subclass (do not set by hand): ``needs_note_access`` is True when
    #: the subclass overrides :meth:`note_access`, letting the cache
    #: skip a no-op call per access; ``default_on_hit`` is True when
    #: the subclass keeps the default move-to-MRU :meth:`on_hit`, letting
    #: the cache call :meth:`CacheSet.touch` directly; ``default_on_fill``
    #: is True when the subclass keeps the default insert-at-MRU
    #: :meth:`on_fill`, letting the cache fill inline.
    needs_note_access = False
    default_on_hit = True
    default_on_fill = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.needs_note_access = (
            cls.note_access is not ReplacementPolicy.note_access
        )
        cls.default_on_hit = cls.on_hit is ReplacementPolicy.on_hit
        cls.default_on_fill = cls.on_fill is ReplacementPolicy.on_fill

    def note_access(self, block: int, seq: int) -> None:
        """Observe an access before the lookup happens.

        Only policies with oracle or global state need this; the default
        does nothing.
        """

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        """React to a hit at ``position``; default is move-to-MRU."""
        cache_set.touch(position)

    @abstractmethod
    def choose_victim(self, cache_set: CacheSet) -> int:
        """Return the position of the block to evict from a full set."""

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        """Install a newly fetched block; default is insert at MRU."""
        cache_set.insert_mru(state)

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, self.name)
