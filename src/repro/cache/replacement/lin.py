"""Cost-sensitive policies: the Linear (LIN) policy of Section 5.1.

LIN chooses ``victim = argmin_i R(i) + lambda * cost_q(i)`` (Equation 2)
where ``R`` is the recency value (MRU highest) and ``cost_q`` the 3-bit
quantized mlp-cost stored in the tag.  Ties go to the smallest recency.
``lambda = 0`` degenerates to LRU; the paper's default is ``lambda = 4``.
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.sets import CacheSet

DEFAULT_LAMBDA = 4


class LINPolicy(ReplacementPolicy):
    """The Linear policy: recency plus lambda times quantized cost."""

    def __init__(self, lam: int = DEFAULT_LAMBDA) -> None:
        if lam < 0:
            raise ValueError("lambda must be non-negative, got %r" % lam)
        self.lam = lam
        self.name = "lin(%d)" % lam

    def choose_victim(self, cache_set: CacheSet) -> int:
        lam = self.lam
        ways = cache_set.ways
        # R(position) = assoc - 1 - position, inlined: this argmin runs
        # once per miss and dominates LIN's cost on miss-heavy traces.
        mru_recency = cache_set.associativity - 1
        best_position = 0
        best_score = mru_recency + lam * ways[0].cost_q
        for position in range(1, len(ways)):
            score = mru_recency - position + lam * ways[position].cost_q
            # "<=" keeps the later (lower-recency) candidate on ties,
            # implementing the paper's tie-break toward small recency.
            if score <= best_score:
                best_score = score
                best_position = position
        return best_position

