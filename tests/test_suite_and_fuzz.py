"""Suite-runner tests, whole-simulator fuzz invariants, and the
native-vs-generic differential.

The invariant battery replays random traces, wrong-path records
included, on the generic loop.  The differential draws machines and
wrong-path-free traces the C kernel runs, replays each on both kernels,
and requires the kernel to have run and the two to agree bit for bit.
"""

import json

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro import obs
from repro.config import (
    CacheGeometry,
    MachineConfig,
    MemoryConfig,
    MSHRConfig,
    ProcessorConfig,
)
from repro.cpu.prefetch import StridePrefetcher
from repro.sim import native
from repro.sim.runner import clear_cache
from repro.sim.suite import main as suite_main, run_suite
from repro.sim.simulator import Simulator
from repro.trace.record import IFETCH, LOAD, STORE, Access

from tests.fingerprints import machine_fingerprint

#: Every policy the fuzz draws from: one spec per registered policy,
#: all of which the native kernel runs.
FUZZ_POLICIES = [
    "lru", "lin(4)", "sbar", "dip", "cbs-global", "cbs-local", "ehc",
    "awrp", "plru", "cost-plru", "lip", "bip", "tournament",
]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestSuiteRunner:
    def suite(self):
        return run_suite(
            policies=("lru", "lin(4)"),
            benchmarks=("lucas", "mcf"),
            scale=0.05,
        )

    def test_matrix_shape(self):
        suite = self.suite()
        assert suite.benchmarks == ["lucas", "mcf"]
        assert suite.policies == ["lru", "lin(4)"]
        assert suite.result("mcf", "lru").demand_misses > 0

    def test_baseline_improvement_is_zero(self):
        suite = self.suite()
        assert suite.improvement("lucas", "lru") == 0.0

    def test_json_roundtrip(self):
        suite = self.suite()
        payload = json.loads(suite.to_json())
        assert payload["scale"] == 0.05
        assert len(payload["runs"]) == 4
        run = payload["runs"][0]
        assert {"benchmark", "policy", "ipc", "mpki"} <= set(run)
        assert len(run["cost_histogram_pct"]) == 8

    def test_csv_has_header_and_rows(self):
        csv_text = self.suite().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("benchmark,policy")
        assert len(lines) == 5

    def test_text_rendering(self):
        text = self.suite().to_text()
        assert "mcf" in text and "IPC" in text

    def test_cli(self, tmp_path, capsys):
        json_path = str(tmp_path / "out.json")
        csv_path = str(tmp_path / "out.csv")
        code = suite_main(
            [
                "--policies", "lru,lip",
                "--benchmarks", "lucas",
                "--scale", "0.05",
                "--json", json_path,
                "--csv", csv_path,
            ]
        )
        assert code == 0
        assert json.load(open(json_path))["runs"]
        assert open(csv_path).read().startswith("benchmark")

    def test_empty_policies_rejected(self):
        with pytest.raises(ValueError):
            run_suite(policies=())


@st.composite
def random_traces(draw):
    """Small arbitrary traces mixing kinds, gaps, and wrong-path refs."""
    n = draw(st.integers(min_value=1, max_value=60))
    trace = []
    for _ in range(n):
        trace.append(
            Access(
                address=draw(st.integers(min_value=0, max_value=1 << 20)) * 8,
                kind=draw(st.sampled_from([LOAD, STORE, IFETCH])),
                gap=draw(st.integers(min_value=0, max_value=500)),
                wrong_path=draw(
                    st.booleans() if draw(st.booleans()) else st.just(False)
                ),
            )
        )
    return trace


class TestSimulatorFuzzInvariants:
    # small_machine is an immutable config; reusing it across examples
    # is safe, so the function-scoped-fixture health check is moot.
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        trace=random_traces(),
        policy=st.sampled_from(FUZZ_POLICIES),
    )
    def test_invariants_hold_on_arbitrary_traces(
        self, trace, policy, small_machine
    ):
        simulator = Simulator(small_machine, policy, kernel="generic")
        result = simulator.run(trace)

        committed = [a for a in trace if not a.wrong_path]
        expected_instructions = sum(a.gap + 1 for a in committed)
        assert result.instructions == expected_instructions

        # Accounting invariants.
        assert 0 <= result.demand_misses <= len(committed)
        assert result.compulsory_misses <= result.demand_misses
        assert result.l2_misses <= result.l2_accesses
        assert result.stall_cycles <= result.cycles
        assert result.long_stalls <= result.stall_events
        # Every serviced demand miss got a cost; merged re-requests may
        # leave a small gap but never an excess.
        assert result.cost_distribution.total <= result.demand_misses
        # Costs are bounded below by overlap and above by queueing.
        if result.cost_distribution.total:
            assert 0 < result.cost_distribution.average < 10_000
        # Cycles cover the dispatch stream.
        assert result.cycles >= expected_instructions / 8 - 1e-6
        # Cache structure stays sane.
        for set_index in range(simulator.l2.n_sets):
            ways = simulator.l2.set_state(set_index).ways
            assert len(ways) <= small_machine.l2.associativity
            assert len({w.block for w in ways}) == len(ways)
            for way in ways:
                assert 0 <= way.cost_q <= 7

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(trace=random_traces())
    def test_determinism(self, trace, small_machine):
        first = Simulator(small_machine, "lin(4)").run(list(trace))
        second = Simulator(small_machine, "lin(4)").run(list(trace))
        assert first.ipc == second.ipc
        assert first.demand_misses == second.demand_misses
        assert first.stall_cycles == second.stall_cycles


#: Policies that need a power-of-two associativity (tree-PLRU).
PLRU_POLICIES = ("plru", "cost-plru")
#: Set-dueling policies, which need leader sets besides followers.
DUELING_POLICIES = ("sbar", "dip", "cbs-global", "cbs-local", "tournament")
#: Blocks per page of the kernel's block -> id directory.
DIRECTORY_PAGE_BLOCKS = 256


@st.composite
def native_machines(draw, policy):
    """A machine the kernel runs: set counts powers of two or not."""
    line = draw(st.sampled_from([32, 64, 128]))

    def cache(sets, ways, latency):
        n_sets = draw(st.sampled_from(sets))
        n_ways = draw(st.sampled_from(ways))
        return CacheGeometry(n_sets * n_ways * line, line, n_ways, latency)

    l2_ways = [1, 2, 4, 8] if policy in PLRU_POLICIES else [1, 2, 3, 4, 8]
    l2_sets = [1, 2, 3, 4, 5, 7, 8, 12, 16, 64]
    if policy in DUELING_POLICIES:
        l2_sets = l2_sets[1:]
    return MachineConfig(
        processor=ProcessorConfig(
            issue_width=draw(st.sampled_from([1, 2, 4, 8])),
            window_size=draw(st.sampled_from([4, 16, 128])),
            store_buffer_size=draw(st.sampled_from([1, 4, 128])),
        ),
        l1i=cache([1, 2, 3, 4, 8], [1, 2, 4], 2),
        l1d=cache([1, 2, 3, 4, 8], [1, 2, 4], 2),
        l2=cache(l2_sets, l2_ways, 15),
        mshr=MSHRConfig(n_entries=draw(st.integers(1, 8))),
        memory=MemoryConfig(
            n_banks=draw(st.sampled_from([1, 2, 3, 4, 8, 32])),
            bus_occupancy=draw(st.integers(1, 20)),
            max_outstanding=draw(st.integers(1, 8)),
        ),
    )


@st.composite
def native_traces(draw, line):
    """Wrong-path-free traces: addresses inside one directory page,
    across page boundaries, on a stride, or scattered up to 2**62."""
    page = DIRECTORY_PAGE_BLOCKS * line
    style = draw(st.sampled_from(["page", "boundary", "stride", "scattered"]))
    n = draw(st.integers(min_value=1, max_value=80))
    if style == "page":
        base = draw(st.integers(0, 1 << 40)) * page
        addresses = st.integers(0, page - 1).map(base.__add__)
    elif style == "boundary":
        edge = draw(st.integers(2, 1 << 40)) * page
        addresses = st.integers(-2 * page, 2 * page - 1).map(edge.__add__)
    elif style == "stride":
        base = draw(st.integers(0, 1 << 50)) * line
        step = draw(st.sampled_from([1, 2, 3, -1, 17])) * line
        start = max(0, -step * n)
        addresses = st.integers(0, n - 1).map(
            lambda i: base + start + step * i
        )
    else:
        addresses = st.integers(0, 1 << 62)
    return [
        Access(
            address=draw(addresses),
            kind=draw(st.sampled_from([LOAD, STORE, IFETCH])),
            gap=draw(st.integers(min_value=0, max_value=500)),
        )
        for _ in range(n)
    ]


@st.composite
def native_runs(draw):
    policy = draw(st.sampled_from(FUZZ_POLICIES))
    config = draw(native_machines(policy))
    try:
        Simulator(config, policy)
    except ValueError:  # e.g. a leader count the set count cannot hold
        reject()
    trace = draw(native_traces(config.l2.line_bytes))
    prefetch = draw(st.none() | st.tuples(
        st.integers(1, 8),                      # entries
        st.sampled_from([1, 16, 4096]),         # region blocks
        st.integers(1, 4),                      # degree
        st.integers(0, 3),                      # confidence threshold
    ))
    return policy, config, trace, prefetch


@pytest.mark.skipif(native.load_extension() is None,
                    reason="extension not built")
class TestNativeDifferential:
    """Random machines and traces on both kernels, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(run=native_runs())
    def test_native_matches_generic(self, run):
        policy, config, trace, prefetch = run
        sims = []
        # Metrics on: every counter a snapshot reads must come back
        # from the kernel as the generic loop keeps it.
        obs.configure(metrics=True)
        try:
            for kernel in ("auto", "generic"):
                sim = Simulator(
                    config, policy, kernel=kernel,
                    prefetcher=(
                        StridePrefetcher(*prefetch) if prefetch else None
                    ),
                )
                sims.append((sim, sim.run(trace)))
        finally:
            obs.configure(metrics=False)
        (fast, fast_result), (generic, generic_result) = sims
        # A silent fallback would compare the generic loop with itself.
        assert fast_result.meta["kernel_used"] == "native", (
            fast.kernel_fallback
        )
        assert fast_result.to_dict() == generic_result.to_dict()
        assert fast_result.metrics == generic_result.metrics
        assert machine_fingerprint(fast) == machine_fingerprint(generic)
