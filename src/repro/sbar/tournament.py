"""K-way policy tournament: SBAR generalized beyond two policies.

Section 6 notes that "previous research has not looked at dynamically
selecting between multiple cache replacement schemes by implementing
the multiple schemes concurrently"; SBAR makes the two-policy case
practical.  This module extends the sampling idea to *k* candidate
policies, a natural future-work item:

* Each candidate owns one group of leader sets in the main directory
  (disjoint by constituency offset) that always run that policy.
* Every leader group is shadowed by one sparse ATD running the same
  candidate, fed by the accesses of *every other* group's leader sets?
  No — that would multiply storage.  Instead the tournament keeps one
  cost-weighted **miss-cost score** per candidate, accumulated only in
  its own leader sets, normalized by leader-set accesses; follower
  sets copy the candidate with the lowest score.

This is the TADIP/set-dueling style generalization: no auxiliary
directories at all, at the price of comparing policies on *different*
sets (sampling noise the analytical model of Section 6.3 quantifies).
Scores decay geometrically so the tournament tracks phase changes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.replacement.base import ReplacementPolicy
from repro.sbar.leader_sets import _check_geometry


class TournamentController:
    """Sampling-based selection among k replacement policies.

    Args:
        n_sets: sets in the main directory.
        policies: candidate policy instances (k >= 2); each candidate
            gets ``n_leaders_per_policy`` dedicated leader sets.
        n_leaders_per_policy: leader sets per candidate.
        decay: per-update geometric decay of the running scores; closer
            to 1.0 = longer memory, smaller = faster phase tracking.
    """

    #: :meth:`note_instructions` is a no-op, so the simulator may skip
    #: the per-record call entirely.
    needs_instruction_clock = False

    def __init__(
        self,
        n_sets: int,
        policies: Sequence[ReplacementPolicy],
        n_leaders_per_policy: int = 8,
        decay: float = 0.999,
    ) -> None:
        if len(policies) < 2:
            raise ValueError("a tournament needs at least two policies")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        total_leaders = len(policies) * n_leaders_per_policy
        constituency_size = _check_geometry(n_sets, n_leaders_per_policy)
        if total_leaders > n_sets:
            raise ValueError(
                "%d policies x %d leaders exceed %d sets"
                % (len(policies), n_leaders_per_policy, n_sets)
            )
        if constituency_size < len(policies):
            raise ValueError("constituencies too small for the field")
        self.n_sets = n_sets
        self.policies = list(policies)
        self.decay = decay
        # Candidate p's leader in constituency c sits at offset
        # (c + p) % constituency_size: diagonal placement keeps groups
        # disjoint and spread like simple-static.
        self._leader_owner: Dict[int, int] = {}
        for candidate in range(len(policies)):
            for constituency in range(n_leaders_per_policy):
                offset = (constituency + candidate) % constituency_size
                set_index = constituency * constituency_size + offset
                self._leader_owner[set_index] = candidate
        # Cost-weighted miss score and access count per candidate.
        self._scores: List[float] = [0.0] * len(policies)
        self._accesses: List[float] = [1e-9] * len(policies)
        self.deferred_updates = 0
        #: Serviced leader misses charged to each candidate.
        self.charges: List[int] = [0] * len(policies)
        #: Optional :class:`repro.obs.Observer`; each serviced leader
        #: miss reports the cost charged to its candidate.
        self.observer = None

    @property
    def name(self) -> str:
        return "tournament(%s)" % ",".join(p.name for p in self.policies)

    def leader_sets_of(self, candidate: int) -> List[int]:
        return sorted(
            set_index
            for set_index, owner in self._leader_owner.items()
            if owner == candidate
        )

    def note_instructions(self, instr_index: int) -> None:
        """No epoch behavior; present for controller-interface parity."""

    def winner(self) -> int:
        """Candidate with the lowest normalized miss-cost score."""
        rates = [
            score / accesses
            for score, accesses in zip(self._scores, self._accesses)
        ]
        return min(range(len(rates)), key=rates.__getitem__)

    def policy_for_set(self, set_index: int) -> ReplacementPolicy:
        owner = self._leader_owner.get(set_index)
        if owner is not None:
            return self.policies[owner]
        return self.policies[self.winner()]

    def observe_access(
        self, set_index: int, block: int, mtd_result
    ) -> Optional[Callable[[int], None]]:
        """Accumulate leader-group scores; misses charge their cost_q.

        Returns a deferred update for misses (their cost is known when
        Algorithm 1 finishes integrating them), mirroring SBAR.
        """
        owner = self._leader_owner.get(set_index)
        if owner is None:
            return None
        self._scores[owner] *= self.decay
        self._accesses[owner] = self._accesses[owner] * self.decay + 1.0
        if mtd_result.hit:
            return None
        self.deferred_updates += 1

        def charge(cost_q: int) -> None:
            # +1 keeps zero-cost misses from being free.
            self._scores[owner] += 1.0 + cost_q
            self.charges[owner] += 1
            if self.observer is not None:
                self.observer.tournament_update(
                    self.policies[owner].name, cost_q
                )

        return charge

    def score_table(self) -> List[Dict[str, object]]:
        """Diagnostic: per-candidate normalized scores."""
        return [
            {
                "policy": policy.name,
                "score_per_access": score / accesses,
                "is_winner": index == self.winner(),
            }
            for index, (policy, score, accesses) in enumerate(
                zip(self.policies, self._scores, self._accesses)
            )
        ]
