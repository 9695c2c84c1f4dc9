"""EHC: an online Expected-Hit-Count approximation of Belady's OPT.

Belady needs the future; EHC (after the expected-hit-count family of
Belady approximations, arXiv:1808.05024) predicts it from the past.
Per block it remembers the last few reuse intervals — measured in
L2-access sequence numbers, the same clock :class:`BeladyPolicy` is
driven with — and predicts the block's *next* use as the current
sequence number plus the mean of those intervals.  Victim selection is
then literally Belady's: evict the resident block with the farthest
(predicted) next use, blocks never seen to recur being "never used
again".

With ``horizon=1`` the predictor is just "last interval repeats", so on
a strictly periodic reference stream the predictions are exact and EHC
degenerates to per-set Belady decisions — the differential test in
``tests/test_oracle.py`` holds it to that.

The policy stores its prediction in the tag's ``next_use`` field (the
same slot Belady stamps), overrides none of the slow-path hooks beyond
what Belady itself needs, and keeps no per-set state.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.cache.block import BlockState
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.deferred import deferred
from repro.cache.replacement.belady import NEVER
from repro.cache.sets import CacheSet

DEFAULT_HORIZON = 4


class EHCPolicy(ReplacementPolicy):
    """Expected-hit-count Belady approximation.

    ``horizon`` is how many recent reuse intervals per block feed the
    next-use prediction (1 = "last interval repeats").
    """

    #: Rebuilt on first read after a native run (see repro.cache.deferred).
    _last_seen = deferred()
    _intervals = deferred()

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1, got %r" % horizon)
        self.horizon = horizon
        self.name = "ehc(%d)" % horizon
        self._last_seen: Dict[int, int] = {}
        self._intervals: Dict[int, Deque[int]] = {}
        self._pending_next_use = NEVER

    def note_access(self, block: int, seq: int) -> None:
        last = self._last_seen.get(block)
        if last is None:
            self._last_seen[block] = seq
            self._pending_next_use = NEVER
            return
        intervals = self._intervals.get(block)
        if intervals is None:
            intervals = self._intervals[block] = deque(maxlen=self.horizon)
        intervals.append(seq - last)
        self._last_seen[block] = seq
        # Integer mean keeps predictions (and therefore victim choices)
        # exactly reproducible across hosts.
        self._pending_next_use = seq + sum(intervals) // len(intervals)

    def on_hit(self, cache_set: CacheSet, position: int) -> None:
        state = cache_set.touch(position)
        state.next_use = self._pending_next_use

    def choose_victim(self, cache_set: CacheSet) -> int:
        # Identical scan to BeladyPolicy.choose_victim: farthest
        # predicted next use wins, ties keep the most-MRU candidate.
        farthest_position = 0
        farthest_use = -1
        for position, state in enumerate(cache_set.ways):
            if state.next_use > farthest_use:
                farthest_use = state.next_use
                farthest_position = position
        return farthest_position

    def on_fill(self, cache_set: CacheSet, state: BlockState) -> None:
        state.next_use = self._pending_next_use
        cache_set.insert_mru(state)
