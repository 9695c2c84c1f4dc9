"""Surrogate-trace synthesis: pinned content, native vs Python, bad input.

``repro.workloads.engine.generate_surrogate`` has two emitters: the
compiled ``synthesize`` (tracegen.c, inside the replay-kernel
extension) and the pure-Python ``_emit_phase`` reference.  Three
contracts are checked here:

* **pinned content** — both emitters reproduce the committed
  ``tests/golden/surrogate_traces.json`` digests (all 14 surrogates at
  two scales and two seeds, plus the multi-phase surrogates at full
  scale), so a draw-order slip fails here rather than as shifted
  figure numbers;
* **differential** — on random :class:`SurrogateSpec` draws the two
  emitters produce byte-identical columns;
* **robustness** — malformed arguments to ``synthesize`` raise Python
  exceptions instead of crashing the interpreter.

Without the extension the native tests skip (they never compare the
Python emitter with itself); CI builds the extension and fails on any
skip in this file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.record import LOAD, STORE
from repro.trace.synthetic import BURST_GAP, ISOLATING_GAP
from repro.workloads import engine
from repro.workloads.engine import SurrogateSpec, generate_surrogate
from repro.workloads.registry import parse_workload_spec

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "surrogate_traces.json").read_text()
)

SYNTHESIZE = engine.native_synthesize()

needs_native = pytest.mark.skipif(
    SYNTHESIZE is None,
    reason="native extension not built (run `make native`)",
)

#: The emitter each generator name selects through the module cache.
GENERATORS = {"native": SYNTHESIZE, "python": None}


def generate(generator, spec, l2_blocks=256, n_sets=16, seed=0,
             line_bytes=64):
    """``generate_surrogate`` with the emitter forced to ``generator``."""
    saved = engine._synthesize
    engine._synthesize = GENERATORS[generator]
    try:
        return generate_surrogate(
            spec, l2_blocks, n_sets, seed=seed, line_bytes=line_bytes
        )
    finally:
        engine._synthesize = saved


def columns(trace):
    return (
        trace._addresses.tobytes(),
        trace._kinds.tobytes(),
        trace._gaps.tobytes(),
    )


@pytest.mark.parametrize(
    "generator",
    [pytest.param("native", marks=needs_native), "python"],
)
def test_golden_surrogate_digests(generator, monkeypatch):
    monkeypatch.setattr(engine, "_synthesize", GENERATORS[generator])
    mismatched = []
    for key, digest in sorted(GOLDEN.items()):
        spec, scale = key.rsplit("@", 1)
        trace = parse_workload_spec(spec).build(float(scale))
        if trace.content_digest() != digest:
            mismatched.append(key)
    assert not mismatched


@needs_native
def test_native_generator_is_the_default(monkeypatch):
    # Guard against the differential degenerating into python-vs-python:
    # with the extension present, a plain build must call it.
    calls = []

    def counting(*args):
        calls.append(args)
        return SYNTHESIZE(*args)

    monkeypatch.setattr(engine, "_synthesize", engine._UNRESOLVED)
    assert engine.native_synthesize() is SYNTHESIZE
    monkeypatch.setattr(engine, "_synthesize", counting)
    parse_workload_spec("mcf").build(0.02)
    assert len(calls) == 1


def test_huge_pools_take_the_python_path(monkeypatch):
    # Pools past 32-bit randrange are outside the native contract.
    def refuse(*args):
        raise AssertionError("native generator called")

    monkeypatch.setattr(engine, "_synthesize", refuse)
    spec = SurrogateSpec(
        accesses=50, p_random=True, p_pool_factor=float(1 << 24),
        burst_sizes=(2,),
    )
    trace = generate_surrogate(spec, l2_blocks=1 << 9, n_sets=16)
    assert len(trace) >= 50


# -- differential -------------------------------------------------------

_fraction = st.floats(0.0, 1.0, allow_nan=False)

_phase_specs = st.builds(
    SurrogateSpec,
    accesses=st.one_of(st.just(1), st.integers(1, 400)),
    p_pool_factor=st.floats(0.0, 3.0),
    burst_sizes=st.lists(
        st.integers(1, 12), min_size=1, max_size=3
    ).map(tuple),
    p_random=st.booleans(),
    mix_isolated=st.floats(0.0, 0.4),
    # 0.001 of a few hundred blocks rounds to an empty S pool too.
    s_pool_factor=st.sampled_from((0.0, 0.001, 0.05, 0.3)),
    transient_rate=st.floats(0.0, 0.2),
    context_noise=st.one_of(st.sampled_from((0.0, 1.0)), _fraction),
    random_pool_factor=st.sampled_from((0.0, 0.5, 4.0)),
    mix_random=st.floats(0.0, 0.2),
    random_isolated=_fraction,
    store_fraction=_fraction,
    set_skew=st.one_of(
        st.none(), st.tuples(st.floats(0.0, 0.9), _fraction)
    ),
    flip_pool_factor=st.floats(0.0, 1.0),
    mix_flip=st.sampled_from((0.0, 0.05, 0.15)),
)

_specs = st.one_of(
    _phase_specs,
    st.builds(
        lambda accesses, phases: SurrogateSpec(
            accesses=accesses, phases=tuple(phases)
        ),
        st.integers(1, 800),
        st.lists(
            st.tuples(_phase_specs, st.integers(1, 150)),
            min_size=1, max_size=3,
        ),
    ),
)


@needs_native
@settings(max_examples=200, deadline=None)
@given(
    spec=_specs,
    l2_blocks=st.sampled_from((64, 256, 4096)),
    n_sets=st.sampled_from((16, 64, 256)),
    seed=st.integers(0, 2**32),
)
def test_native_matches_python(spec, l2_blocks, n_sets, seed):
    native = generate("native", spec, l2_blocks, n_sets, seed)
    python = generate("python", spec, l2_blocks, n_sets, seed)
    assert columns(native) == columns(python)
    assert len(native) >= spec.accesses


@needs_native
def test_both_generators_reject_address_overflow():
    spec = SurrogateSpec(accesses=20)
    for generator in GENERATORS:
        with pytest.raises(OverflowError):
            generate(generator, spec, line_bytes=1 << 40)


@pytest.mark.parametrize(
    "spec, message",
    [
        (SurrogateSpec(accesses=10, burst_sizes=(2, 0)), "burst sizes"),
        # A zero quota used to loop forever instead of failing.
        (SurrogateSpec(accesses=10, phases=((SurrogateSpec(), 0),)),
         "quotas"),
    ],
)
def test_invalid_specs_raise(spec, message):
    with pytest.raises(ValueError, match=message):
        generate_surrogate(spec, 256, 16)


# -- robustness of the native entry point ------------------------------


def _valid_call():
    """A well-formed ``synthesize`` argument list, as engine builds it."""
    rng = random.Random(5)
    state = engine._PhaseState(
        # Full context noise: every S visit brings two companions.
        SurrogateSpec(
            accesses=64, context_noise=1.0, mix_isolated=0.5,
            mix_random=0.1, random_pool_factor=2.0,
        ),
        64, 256, 16, rng, 1,
    )
    return [
        rng.getstate()[1], [state.native_params()], 64, 16, 64,
        (ISOLATING_GAP, BURST_GAP), (LOAD, STORE),
    ]


def _with_phase(index, value):
    args = _valid_call()
    phase = list(args[1][0])
    phase[index] = value
    args[1] = [tuple(phase)]
    return args


@needs_native
def test_valid_call_returns_three_columns():
    addresses, kinds, gaps = SYNTHESIZE(*_valid_call())
    assert len(addresses) == len(gaps) == 8 * len(kinds)
    assert len(kinds) >= 64


def _replace(index, value):
    args = _valid_call()
    args[index] = value
    return args


_state = _valid_call()[0]

MALFORMED = {
    "short state": (_replace(0, _state[:100]), ValueError),
    "state of strings": (_replace(0, ("x",) * 625), TypeError),
    "state not a sequence": (_replace(0, 7), TypeError),
    "state word past 32 bits": (
        _replace(0, (1 << 40,) + tuple(_state[1:])), ValueError
    ),
    "state position past 624": (
        _replace(0, tuple(_state[:624]) + (625,)), ValueError
    ),
    "negative budget": (_replace(2, -1), ValueError),
    "phases not a sequence": (_replace(1, None), TypeError),
    "no phases": (_replace(1, []), ValueError),
    "phase not a tuple": (_replace(1, [[0] * 21]), TypeError),
    "short phase tuple": (_replace(1, [(1, 2, 3)]), TypeError),
    "mistyped quota": (_with_phase(0, "many"), TypeError),
    "zero quota": (_with_phase(0, 0), ValueError),
    "empty burst_sizes": (_with_phase(13, ()), ValueError),
    "zero burst size": (_with_phase(13, (4, 0)), ValueError),
    "burst_sizes not a sequence": (_with_phase(13, 4), TypeError),
    "mistyped s_blocks": (_with_phase(14, ["a"]), TypeError),
    "empty p pool": (_with_phase(11, 0), ValueError),
    "random pool past 32 bits": (_with_phase(17, 1 << 33), ValueError),
    "address overflow": (_replace(4, 1 << 40), OverflowError),
    "companion overflow": (
        _with_phase(20, (1 << 63) - 1), OverflowError
    ),
    "bad kinds": (_replace(6, (LOAD, 1000)), ValueError),
}


@needs_native
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises(case):
    args, error = MALFORMED[case]
    with pytest.raises(error):
        SYNTHESIZE(*args)
