"""Synthetic trace primitives.

The SPEC CPU2000 surrogates in :mod:`repro.workloads` are composed from a
small vocabulary of access patterns, each of which produces a
characteristic MLP signature in the Table 2 machine:

* :func:`strided_stream` — array sweeps.  Consecutive blocks fall in one
  instruction window, so their misses overlap (parallel misses).
* :func:`pointer_chase` — dependent loads separated by more than one
  window of instructions, so each miss stalls the core alone (isolated
  misses).
* :func:`random_working_set` — uniform references over a block pool, for
  background cache pressure.

:class:`TraceBuilder` assembles these into full traces with deterministic
seeding.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.trace.record import (
    LOAD,
    STORE,
    Access,
    Trace,
    validate_access_fields,
)

#: Gap large enough that the previous miss has left the instruction
#: window before the next access dispatches (window is 128).
ISOLATING_GAP = 160

#: Gap small enough that a run of accesses coexists in one window.
BURST_GAP = 4


class TraceBuilder:
    """Incrementally builds a trace from pattern primitives.

    All randomness flows through one seeded :class:`random.Random` so a
    builder with a given seed always produces the identical trace.
    """

    def __init__(self, seed: int = 0, line_bytes: int = 64) -> None:
        self.rng = random.Random(seed)
        self.line_bytes = line_bytes
        self._trace: Trace = []
        self._pending_gap = 0

    # -- low-level ----------------------------------------------------

    def access(
        self,
        block: int,
        kind: int = LOAD,
        gap: int = BURST_GAP,
        wrong_path: bool = False,
    ) -> "TraceBuilder":
        """Append one access to cache block number ``block``.

        Any instructions queued with :meth:`quiet` are folded into this
        access's gap.  Field validation happens here (the builder is a
        trace entry point); ``Access`` itself no longer validates.
        """
        gap += self._pending_gap
        validate_access_fields(block * self.line_bytes, kind, gap)
        self._pending_gap = 0
        self._trace.append(
            Access(block * self.line_bytes, kind, gap, wrong_path)
        )
        return self

    def extend(self, accesses: Iterable[Access]) -> "TraceBuilder":
        self._trace.extend(accesses)
        return self

    # -- pattern primitives -------------------------------------------

    def burst(
        self,
        blocks: Sequence[int],
        kind: int = LOAD,
        lead_gap: int = BURST_GAP,
    ) -> "TraceBuilder":
        """Touch ``blocks`` back to back inside one instruction window.

        If they miss, the misses are serviced in parallel — the P-block
        pattern of Figure 1.
        """
        for position, block in enumerate(blocks):
            gap = lead_gap if position == 0 else BURST_GAP
            self.access(block, kind, gap)
        return self

    def isolated(self, block: int, kind: int = LOAD) -> "TraceBuilder":
        """Touch ``block`` with a window-draining gap before it.

        If it misses, the miss is isolated — the S-block pattern of
        Figure 1.
        """
        return self.access(block, kind, ISOLATING_GAP)

    def quiet(self, instructions: int) -> "TraceBuilder":
        """Record ``instructions`` non-memory instructions.

        Realized by inflating the gap of the next access, so callers must
        eventually append another access; the builder tracks the pending
        gap internally.
        """
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        self._pending_gap += instructions
        return self

    def build(self) -> Trace:
        """Return the assembled trace and reset the builder."""
        trace = self._trace
        self._trace = []
        self._pending_gap = 0
        return trace


# -- free-standing generators ------------------------------------------


def strided_stream(
    start_block: int,
    n_blocks: int,
    line_bytes: int = 64,
    kind: int = LOAD,
    burst: int = 8,
    lead_gap: int = ISOLATING_GAP,
    intra_gap: int = BURST_GAP,
) -> Trace:
    """A unit-stride sweep over ``n_blocks`` consecutive blocks.

    Accesses arrive in bursts of ``burst`` blocks; blocks within a burst
    share an instruction window (parallel misses), bursts are separated
    by ``lead_gap`` instructions.
    """
    trace: Trace = []
    for index in range(n_blocks):
        first_of_burst = index % burst == 0
        gap = lead_gap if first_of_burst else intra_gap
        trace.append(Access((start_block + index) * line_bytes, kind, gap))
    return trace


def pointer_chase(
    blocks: Sequence[int],
    line_bytes: int = 64,
    gap: int = ISOLATING_GAP,
) -> Trace:
    """Dependent-load chain over ``blocks``: every miss is isolated."""
    return [Access(block * line_bytes, LOAD, gap) for block in blocks]


def random_working_set(
    rng: random.Random,
    pool: Sequence[int],
    n_accesses: int,
    line_bytes: int = 64,
    store_fraction: float = 0.0,
    gap: int = BURST_GAP,
) -> Trace:
    """Uniform random references over a pool of block numbers."""
    trace: Trace = []
    for _ in range(n_accesses):
        block = rng.choice(pool)
        kind = STORE if rng.random() < store_fraction else LOAD
        trace.append(Access(block * line_bytes, kind, gap))
    return trace


def interleave(rng: random.Random, *traces: Trace) -> Trace:
    """Randomly interleave several traces, preserving each one's order.

    The probability of drawing from a trace is proportional to how many
    accesses it has left, so the mix stays uniform along the result.
    """
    cursors = [0] * len(traces)
    remaining = [len(trace) for trace in traces]
    total = sum(remaining)
    result: Trace = []
    for _ in range(total):
        pick = rng.randrange(sum(remaining))
        for which, count in enumerate(remaining):
            if pick < count:
                break
            pick -= count
        result.append(traces[which][cursors[which]])
        cursors[which] += 1
        remaining[which] -= 1
    return result
