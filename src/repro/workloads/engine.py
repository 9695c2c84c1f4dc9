"""Surrogate-trace generation engine.

A surrogate is described by a :class:`SurrogateSpec` and emitted as a
mixture of five traffic classes, each reproducing one ingredient of
the paper's benchmark behaviours:

* **P traffic** - bursts of spatially-sequential blocks from a
  streaming pool.  Bursts are separated by a window-draining gap, so a
  burst of size B that misses produces exactly B parallel misses
  (MLP = B).  Cyclic pools (``p_random=False``) have deterministic
  reuse with per-block-stable burst contexts (small deltas, and the
  structure LIN's filtering exploits); random pools have stochastic
  reuse that degrades gracefully under way-stealing.
* **S traffic** - single accesses to a reused pool, isolated on both
  sides by window-draining gaps: the savable isolated misses that LIN
  protects (the mcf/vpr/sixtrack win mechanism).
* **Transient traffic** - isolated touches to blocks never reused;
  under LIN these acquire maximal cost_q and pollute sets.
* **Cold random traffic** - a pool far larger than the cache visited
  uniformly at random, isolated with probability ``random_isolated``:
  unsavable stall mass plus the stale-cost pinning that produces the
  bzip2/parser/mgrid LIN regressions.
* **Flip traffic** - a pool folded onto a few self-thrashing sets
  whose visit context alternates isolated/parallel every lap: the
  controlled source of large Table 1 deltas (cost unpredictability).

*Context noise* additionally makes a fraction of S visits ride inside
a burst (and P visits occur isolated).

Block-number name-spacing keeps all classes in disjoint ranges so
instrumentation can attribute misses per class.

Records are emitted straight into :class:`~repro.trace.packed.PackedTrace`
columns.  When the compiled extension is present its ``synthesize``
function runs the emission loop in C: Python still builds each phase's
pools (the S-pool shuffle consumes the RNG) and thresholds, then hands
the Mersenne Twister state over, and C replays CPython's ``random()``
and ``randrange()`` draw for draw.  :func:`_emit_phase` is the
pure-Python reference and fallback; both produce identical columns.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from typing import List, Optional, Tuple

from repro.trace.packed import PackedTrace
from repro.trace.record import LOAD, STORE
from repro.trace.synthetic import BURST_GAP, ISOLATING_GAP

#: Name-space bases keeping traffic classes in disjoint block ranges.
_S_BASE = 1 << 24
_TRANSIENT_BASE = 1 << 25
_RANDOM_BASE = 3 << 24
_FLIP_BASE = 5 << 23
_COMPANION_BASE = 7 << 23
_PHASE_STRIDE = 1 << 26

#: Flip blocks per cache set: far above the 16-way associativity so
#: the flip pool thrashes its sets and *re-misses* on every lap (a
#: resident flip block would stop producing deltas, and a pool close
#: to the associativity would be mostly LIN-protectable).  Keep in
#: sync with tracegen.c.
FLIP_BLOCKS_PER_SET = 64

#: Set-stride for flip lanes; a multiple of any power-of-two set count
#: up to 64K, so all lanes of one offset share a cache set.
FLIP_LANE_STRIDE = 1 << 16

#: Pools the native generator draws from with 32-bit ``randrange``;
#: anything larger takes the Python path.
_NATIVE_POOL_LIMIT = 1 << 32

#: Tri-state cache of the native ``synthesize`` function: the sentinel
#: means "not probed yet", None means unavailable.  Tests set it to
#: None to force the pure-Python generator.
_UNRESOLVED = object()
_synthesize = _UNRESOLVED


def native_synthesize():
    """The compiled ``synthesize`` function, or None when unavailable."""
    global _synthesize
    if _synthesize is _UNRESOLVED:
        try:
            from repro._native.replaykernel import synthesize
        except ImportError:
            synthesize = None
        _synthesize = synthesize
    return _synthesize


@dataclass(frozen=True)
class SurrogateSpec:
    """Tunable description of one benchmark surrogate.

    Pool sizes are expressed as fractions of the L2 block count so the
    same spec scales with the experiment cache.
    """

    #: Memory accesses emitted at scale 1.0.
    accesses: int = 150_000
    #: P-pool size as a fraction of L2 blocks (streaming pool).
    p_pool_factor: float = 1.5
    #: Burst sizes cycled through for P traffic (MLP degrees).
    burst_sizes: Tuple[int, ...] = (4,)
    #: False: the P pool is swept cyclically (guaranteed reuse at a
    #: fixed distance - the pattern LIN's filtering exploits fully).
    #: True: bursts start at random pool offsets, so reuse distances
    #: are stochastic and per-block protection pays off gradually.
    p_random: bool = False
    #: Fraction of accesses that are isolated S references.
    mix_isolated: float = 0.15
    #: S-pool size as a fraction of L2 blocks.
    s_pool_factor: float = 0.2
    #: Fraction of accesses that are isolated never-reused transients.
    transient_rate: float = 0.0
    #: Probability a visit happens in the "wrong" context (S in a
    #: burst / P isolated), driving the Table 1 delta.
    context_noise: float = 0.0
    #: Cold random pool (as a fraction of L2 blocks): blocks drawn
    #: uniformly, so any individual block's short-term reuse probability
    #: is near zero.  High-cost visits to this pool are what LIN
    #: wrongly protects in the bzip2/parser/mgrid family.
    random_pool_factor: float = 0.0
    #: Fraction of accesses that go to the cold random pool.
    mix_random: float = 0.0
    #: Probability a cold-pool visit is isolated (cost ~444) rather
    #: than embedded in a parallel burst (cost ~444/3); revisits flip
    #: contexts at random, producing large Table 1 deltas.
    random_isolated: float = 0.7
    #: Fraction of accesses that are stores.
    store_fraction: float = 0.05
    #: Restrict all traffic to a sub-range of sets: (start, width) as
    #: fractions of the set count.  None = uniform over all sets.
    set_skew: Optional[Tuple[float, float]] = None
    #: Flip pool: blocks revisited round-robin whose context alternates
    #: every lap between isolated (cost ~444) and burst-embedded
    #: (cost ~150).  Every revisit is a miss with a large Table 1 delta;
    #: this is the controlled source of cost unpredictability.
    flip_pool_factor: float = 0.5
    #: Fraction of accesses that go to the flip pool.
    mix_flip: float = 0.0
    #: Alternating phases: (spec, accesses_per_visit) entries cycled
    #: until the access budget is spent.  Outer spec fields other than
    #: ``accesses`` are ignored when phases are present.
    phases: Optional[Tuple[Tuple["SurrogateSpec", int], ...]] = None

    def scaled(self, scale: float) -> "SurrogateSpec":
        """Scale the access budget (and phase visit lengths) together.

        Phase quotas must shrink with the budget or a scaled-down trace
        would degenerate to a single phase.
        """
        phases = self.phases
        if phases is not None and scale < 1.0:
            phases = tuple(
                (phase_spec, max(1, int(quota * scale)))
                for phase_spec, quota in phases
            )
        return replace(
            self,
            accesses=max(1, int(self.accesses * scale)),
            phases=phases,
        )


class _PhaseState:
    """One phase's pools, draw parameters and (Python-path) cursors."""

    def __init__(
        self,
        spec: SurrogateSpec,
        quota: int,
        l2_blocks: int,
        n_sets: int,
        rng: random.Random,
        namespace: int,
    ) -> None:
        if quota < 1:
            raise ValueError("access budgets and phase quotas must be positive")
        if any(size < 1 for size in spec.burst_sizes):
            raise ValueError("burst sizes must be positive")
        self.quota = quota
        base = namespace * _PHASE_STRIDE
        pattern = sum(spec.burst_sizes)
        pool = max(pattern, int(spec.p_pool_factor * l2_blocks))
        if not spec.p_random:
            # Round cyclic pools to a whole number of burst patterns so
            # every lap regroups identically: each block keeps the same
            # parallelism context visit after visit (small deltas).
            pool = max(pattern, (pool // pattern) * pattern)
        self.p_random = bool(spec.p_random)
        self.p_pool = pool
        self.p_base = base
        self.burst_sizes = tuple(spec.burst_sizes)
        s_pool = max(0, int(spec.s_pool_factor * l2_blocks))
        self.s_blocks: List[int] = [
            base + _S_BASE + index for index in range(s_pool)
        ]
        rng.shuffle(self.s_blocks)
        self.transient_base = base + _TRANSIENT_BASE
        self.random_base = base + _RANDOM_BASE
        self.random_pool = max(0, int(spec.random_pool_factor * l2_blocks))
        flip_pool = 0
        if spec.mix_flip > 0:
            flip_pool = max(1, int(spec.flip_pool_factor * l2_blocks))
        self.flip_base = base + _FLIP_BASE
        self.flip_pool = flip_pool
        self.companion_base = base + _COMPANION_BASE
        self.thresholds = _draw_thresholds(spec)
        self.context_noise = spec.context_noise
        self.random_isolated = spec.random_isolated
        self.store_threshold = int(spec.store_fraction * 100)
        self.skew = (0, 0)  # (start, width); width 0 means unskewed
        if spec.set_skew is not None:
            self.skew = _skew_window(n_sets, spec.set_skew)
        # Cursors, advanced by the Python emitter across phase visits.
        self.burst_rotation = 0
        self.p_cursor = 0
        self.s_cursor = 0
        self.transients_used = 0
        self.flip_cursor = 0
        self.flip_lap = 0
        self.companions_used = 0

    @property
    def native_ok(self) -> bool:
        """Whether the native generator's 32-bit draws cover the pools."""
        return (
            self.p_pool < _NATIVE_POOL_LIMIT
            and self.random_pool < _NATIVE_POOL_LIMIT
        )

    def native_params(self) -> tuple:
        """The per-phase tuple ``synthesize`` takes (see tracegen.c)."""
        return (
            self.quota, *self.thresholds,
            self.context_noise, self.random_isolated,
            self.store_threshold, *self.skew,
            self.p_random, self.p_pool, self.p_base, self.burst_sizes,
            self.s_blocks, self.transient_base, self.random_base,
            self.random_pool, self.flip_base, self.flip_pool,
            self.companion_base,
        )


def _skew_window(n_sets: int, skew: Tuple[float, float]) -> Tuple[int, int]:
    """``(start, width)`` in sets of a ``set_skew`` fraction pair."""
    return int(skew[0] * n_sets), max(1, int(skew[1] * n_sets))


def _skew_blocks(
    blocks: List[int], n_sets: int, window: Tuple[int, int]
) -> List[int]:
    """Remap blocks so their set indices fall in ``window`` (start, width)."""
    start, width = window
    return [
        lane * n_sets + start + offset
        for lane, offset in map(divmod, blocks, repeat(width))
    ]


def generate_surrogate(
    spec: SurrogateSpec,
    l2_blocks: int,
    n_sets: int,
    seed: int = 0,
    line_bytes: int = 64,
) -> PackedTrace:
    """Emit one surrogate trace as packed columns.

    The trace is deterministic in (spec, l2_blocks, n_sets, seed), and
    identical whether the native or the Python generator emits it.
    """
    rng = random.Random(seed)
    schedule = list(spec.phases) if spec.phases else [(spec, spec.accesses)]
    states = [
        _PhaseState(phase_spec, quota, l2_blocks, n_sets, rng, index + 1)
        for index, (phase_spec, quota) in enumerate(schedule)
    ]
    budget = max(0, spec.accesses)
    addresses = array("q")
    kinds = array("b")
    gaps = array("q")
    synthesize = native_synthesize()
    if synthesize is not None and all(state.native_ok for state in states):
        blobs = synthesize(
            rng.getstate()[1],
            [state.native_params() for state in states],
            budget, n_sets, line_bytes,
            (ISOLATING_GAP, BURST_GAP), (LOAD, STORE),
        )
        for column, blob in zip((addresses, kinds, gaps), blobs):
            column.frombytes(blob)
    else:
        columns = (addresses, kinds, gaps)
        phase_index = 0
        while budget > 0:
            state = states[phase_index % len(states)]
            budget -= _emit_phase(
                columns, state, min(state.quota, budget), rng,
                n_sets, line_bytes,
            )
            phase_index += 1
    return PackedTrace.from_columns(addresses, kinds, gaps)


def _draw_thresholds(
    spec: SurrogateSpec,
) -> Tuple[float, float, float, float]:
    """Cumulative draw probabilities making mix_* *access* fractions.

    A P draw emits a whole burst, so category draw weights are the
    desired access fraction divided by the accesses one draw emits.
    """
    avg_burst = sum(spec.burst_sizes) / len(spec.burst_sizes)
    cold_accesses = 1.0 + 2.0 * (1.0 - spec.random_isolated)
    p_fraction = max(
        0.0,
        1.0 - spec.mix_isolated - spec.transient_rate
        - spec.mix_random - spec.mix_flip,
    )
    weight_s = spec.mix_isolated
    weight_t = spec.transient_rate
    weight_r = spec.mix_random / cold_accesses
    weight_f = spec.mix_flip / 2.0  # flip draws average ~2 accesses
    weight_p = p_fraction / avg_burst
    total = weight_s + weight_t + weight_r + weight_f + weight_p
    if total <= 0:
        raise ValueError("surrogate spec emits no traffic")
    return (
        weight_s / total,
        (weight_s + weight_t) / total,
        (weight_s + weight_t + weight_r) / total,
        (weight_s + weight_t + weight_r + weight_f) / total,
    )


def _emit_phase(
    columns: Tuple[array, array, array],
    state: _PhaseState,
    quota: int,
    rng: random.Random,
    n_sets: int,
    line_bytes: int,
) -> int:
    """Append up to ``quota`` records of one phase visit to ``columns``.

    The pure-Python reference for tracegen.c: every RNG draw happens in
    the same order there.  Blocks and gaps collect in lists; the skew
    remap, the store hash and the address multiply then run over the
    whole visit at once.  Returns the number of records appended.
    """
    draw = rng.random
    randrange = rng.randrange
    threshold_s, threshold_t, threshold_r, threshold_f = state.thresholds
    noise = state.context_noise
    random_isolated = state.random_isolated
    s_blocks = state.s_blocks
    n_s = len(s_blocks)
    s_cursor = state.s_cursor
    transient_base = state.transient_base
    transients = state.transients_used
    random_base, random_pool = state.random_base, state.random_pool
    flip_base, flip_pool = state.flip_base, state.flip_pool
    flip_cursor, flip_lap = state.flip_cursor, state.flip_lap
    flip_spread = max(1, flip_pool // FLIP_BLOCKS_PER_SET)
    companion_base = state.companion_base
    companions = state.companions_used
    p_random, p_pool, p_base = state.p_random, state.p_pool, state.p_base
    p_cursor = state.p_cursor
    sizes = state.burst_sizes
    rotation = state.burst_rotation
    burst_tails = {size: [BURST_GAP] * (size - 1) for size in sizes}
    isolated_tails = {size: [ISOLATING_GAP] * (size - 1) for size in sizes}

    blocks: List[int] = []
    gaps: List[int] = []
    add_block = blocks.append
    add_gap = gaps.append
    # Gap owed to the next record: an isolated visit drains the window
    # on both sides, so the record after it carries an extra gap.
    carry = 0
    while len(blocks) < quota:
        choice = draw()
        if choice < threshold_s and n_s:
            block = s_blocks[s_cursor]
            s_cursor = (s_cursor + 1) % n_s
            # Wrong context: the S block rides inside a burst and its
            # miss is serviced in parallel (low cost this time).
            in_burst = draw() < noise
        elif choice < threshold_t:
            block = transient_base + transients
            transients += 1
            in_burst = False
        elif choice < threshold_r and random_pool:
            block = random_base + randrange(random_pool)
            in_burst = not draw() < random_isolated
        elif choice < threshold_f and flip_pool:
            # The pool is folded onto a few cache sets so consecutive
            # laps always miss; the context alternates every lap.
            lane, offset = divmod(flip_cursor, flip_spread)
            block = flip_base + offset + lane * FLIP_LANE_STRIDE
            flip_cursor += 1
            if flip_cursor >= flip_pool:
                flip_cursor = 0
                flip_lap += 1
            in_burst = flip_lap % 2 != 0
        else:
            size = sizes[rotation % len(sizes)]
            rotation += 1
            if p_random:
                # Spatially sequential burst at a random pool offset.
                start = randrange(p_pool)
            else:
                start = p_cursor
                p_cursor = (p_cursor + size) % p_pool
            blocks += [p_base + (start + i) % p_pool for i in range(size)]
            add_gap(ISOLATING_GAP + carry)
            if draw() < noise:
                # Wrong context: the stream is visited one block at a
                # time with window-draining gaps (isolated misses).
                gaps += isolated_tails[size]
                carry = ISOLATING_GAP
            else:
                gaps += burst_tails[size]
                carry = 0
            continue
        add_block(block)
        add_gap(ISOLATING_GAP + carry)
        if in_burst:
            # Fresh never-reused companions guarantee real parallel
            # misses next to the visit (a resident one would hit).
            add_block(companion_base + companions)
            add_block(companion_base + companions + 1)
            companions += 2
            gaps += (BURST_GAP, BURST_GAP)
        carry = ISOLATING_GAP

    state.s_cursor = s_cursor
    state.transients_used = transients
    state.flip_cursor, state.flip_lap = flip_cursor, flip_lap
    state.companions_used = companions
    state.p_cursor = p_cursor
    state.burst_rotation = rotation

    if state.skew[1]:
        blocks = _skew_blocks(blocks, n_sets, state.skew)
    # Store placement is a deterministic hash of the block so a given
    # block keeps the same access kind on every visit; random placement
    # would perturb the window-stall structure between laps and
    # fabricate mlp-cost deltas out of thin air.
    store_threshold = state.store_threshold
    addresses, kinds, gap_column = columns
    kinds.extend([
        STORE if (block * 2654435761) % 100 < store_threshold else LOAD
        for block in blocks
    ])
    addresses.extend([block * line_bytes for block in blocks])
    gap_column.extend(gaps)
    return len(blocks)
