"""Contest Based Selection with full auxiliary directories (Section 6.1).

CBS implements *both* rival policies in complete auxiliary tag
directories (ATD-LIN and ATD-LRU, each as large as the main directory)
and updates PSEL on every divergent outcome (Figure 6):

* access misses ATD-LIN, hits ATD-LRU  ->  PSEL -= cost_q of the miss,
* access hits ATD-LIN, misses ATD-LRU  ->  PSEL += cost_q of the miss.

The cost_q of an ATD miss comes from the MTD tag entry when the access
hit in the MTD, and from the actual serviced mlp-cost otherwise
(footnote 6) — the latter is deferred via the returned callback.

``scope='local'`` keeps one PSEL per set (CBS-local); ``scope='global'``
keeps a single 7-bit PSEL for the whole cache (CBS-global, footnote 7).
SBAR approximates CBS-global at 1/64th of the storage.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.block import BlockState
from repro.cache.cache import AccessResult
from repro.cache.replacement import LINPolicy, LRUPolicy, ReplacementPolicy
from repro.cache.tag_directory import SparseTagDirectory
from repro.sbar.psel import PolicySelector

LOCAL = "local"
GLOBAL = "global"


class CBSController:
    """CBS-local / CBS-global over a full pair of auxiliary directories."""

    #: :meth:`note_instructions` is a no-op, so the simulator may skip
    #: the per-record call entirely.
    needs_instruction_clock = False

    def __init__(
        self,
        n_sets: int,
        associativity: int,
        lam: int = 4,
        scope: str = GLOBAL,
        psel_bits: Optional[int] = None,
    ) -> None:
        if scope not in (LOCAL, GLOBAL):
            raise ValueError("scope must be 'local' or 'global', got %r" % scope)
        self.n_sets = n_sets
        self.scope = scope
        if psel_bits is None:
            # Footnote 7: a 7-bit counter works better when 1024 sets
            # feed a single global PSEL.
            psel_bits = 7 if scope == GLOBAL else 6
        self.lin = LINPolicy(lam)
        self.lru = LRUPolicy()
        all_sets = range(n_sets)
        self.atd_lin = SparseTagDirectory(all_sets, associativity, LINPolicy(lam))
        self.atd_lru = SparseTagDirectory(all_sets, associativity, LRUPolicy())
        n_psels = n_sets if scope == LOCAL else 1
        self._psels: List[PolicySelector] = [
            PolicySelector(
                psel_bits, label="cbs" if n_psels == 1 else "cbs[%d]" % index
            )
            for index in range(n_psels)
        ]
        self.deferred_updates = 0

    @property
    def name(self) -> str:
        return "cbs-%s" % self.scope

    def psel_for_set(self, set_index: int) -> PolicySelector:
        if self.scope == LOCAL:
            return self._psels[set_index]
        return self._psels[0]

    def note_instructions(self, instr_index: int) -> None:
        """CBS has no epoch behavior; present for interface parity."""

    def policy_for_set(self, set_index: int) -> ReplacementPolicy:
        return self.lin if self.psel_for_set(set_index).msb else self.lru

    def observe_access(
        self, set_index: int, block: int, mtd_result: AccessResult
    ) -> Optional[Callable[[int], None]]:
        """Race both ATDs; return a deferred update if cost is pending."""
        lru_result = self.atd_lru.access(set_index, block)
        # ATD-LIN is accessed through a wrapper that wires cost_q into
        # its fills, mirroring footnote 6.
        lin_result = self.atd_lin.access(set_index, block)
        lin_fill: Optional[BlockState] = None
        if not lin_result.hit:
            lin_fill = lin_result.state
            if mtd_result.hit:
                lin_fill.cost_q = mtd_result.state.cost_q
                lin_fill = None  # cost resolved, nothing deferred

        psel = self.psel_for_set(set_index)
        if lin_result.hit == lru_result.hit:
            return self._deferred(None, lin_fill)
        if lin_result.hit:
            # LIN avoided the miss LRU incurred.
            if mtd_result.hit:
                psel.increment(mtd_result.state.cost_q)
                return self._deferred(None, lin_fill)
            return self._deferred(psel.increment, lin_fill)
        # LRU avoided the miss LIN incurred.
        if mtd_result.hit:
            psel.decrement(mtd_result.state.cost_q)
            return self._deferred(None, lin_fill)
        return self._deferred(psel.decrement, lin_fill)

    def _deferred(
        self,
        psel_update: Optional[Callable[[int], None]],
        lin_fill: Optional[BlockState],
    ) -> Optional[Callable[[int], None]]:
        """Combine a pending PSEL update and ATD-LIN cost patch."""
        if psel_update is None and lin_fill is None:
            return None
        self.deferred_updates += 1

        def apply(cost_q: int) -> None:
            if lin_fill is not None:
                lin_fill.cost_q = cost_q
            if psel_update is not None:
                psel_update(cost_q)

        return apply
