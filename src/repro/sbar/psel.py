"""The policy selector (PSEL): a saturating counter (Section 6.1).

PSEL integrates the MLP-based cost of the misses each rival policy
would have avoided.  Updates use saturating arithmetic; the most
significant bit selects the policy (MSB set -> LIN is winning).  The
paper uses 6 bits for SBAR and CBS-local, 7 bits for CBS-global
(footnote 7).
"""

from __future__ import annotations


class PolicySelector:
    """Saturating up/down counter with an MSB output."""

    def __init__(self, n_bits: int = 6, label: str = "psel") -> None:
        if n_bits < 1:
            raise ValueError("PSEL needs at least one bit")
        self.n_bits = n_bits
        self.max_value = (1 << n_bits) - 1
        self._msb_threshold = 1 << (n_bits - 1)
        # Start at the midpoint so neither policy begins with an edge.
        self.value = self._msb_threshold
        #: Amounts credited each way, and the calls that credited them
        #: (a zero amount counts as a call).
        self.increments = 0
        self.decrements = 0
        self.increment_calls = 0
        self.decrement_calls = 0
        #: Telemetry identity, set by the owning controller, and an
        #: optional event sink the simulator wires in.
        self.label = label
        self.observer = None

    def increment(self, amount: int = 1) -> None:
        """Credit the LIN policy (it avoided a miss LRU incurred)."""
        if amount < 0:
            raise ValueError("update amounts must be non-negative")
        self.value = min(self.max_value, self.value + amount)
        self.increments += amount
        self.increment_calls += 1
        if self.observer is not None:
            self.observer.psel_update(self.label, "inc", amount, self.value)

    def decrement(self, amount: int = 1) -> None:
        """Credit the LRU policy (it avoided a miss LIN incurred)."""
        if amount < 0:
            raise ValueError("update amounts must be non-negative")
        self.value = max(0, self.value - amount)
        self.decrements += amount
        self.decrement_calls += 1
        if self.observer is not None:
            self.observer.psel_update(self.label, "dec", amount, self.value)

    @property
    def msb(self) -> bool:
        """True when the MSB is set, i.e. LIN is the selected policy."""
        return self.value >= self._msb_threshold

    def __repr__(self) -> str:
        return "PolicySelector(%d/%d msb=%s)" % (
            self.value, self.max_value, self.msb
        )
