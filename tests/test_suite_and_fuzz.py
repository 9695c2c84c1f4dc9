"""Suite-runner tests and whole-simulator fuzz invariants.

The fuzz battery is also a native-vs-generic differential: every random
trace replays on ``kernel="auto"`` (the C kernel when the extension is
built) and on the generic loop, and the two must agree bit for bit.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.runner import clear_cache
from repro.sim.suite import main as suite_main, run_suite
from repro.sim.simulator import Simulator
from repro.trace.record import IFETCH, LOAD, STORE, Access

from tests.fingerprints import AUTO_KERNEL, machine_fingerprint

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
        simulator = Simulator(small_machine, policy)
        result = simulator.run(trace)

        # The list reaches the kernel unless it holds wrong-path
        # records, and either way matches the generic loop exactly.
        committed = [a for a in trace if not a.wrong_path]
        if len(committed) == len(trace):
            assert simulator.replay_kernel == AUTO_KERNEL
        reference_sim = Simulator(small_machine, policy, kernel="generic")
        reference = reference_sim.run(trace)
        assert result.to_dict() == reference.to_dict()
        assert machine_fingerprint(simulator) == machine_fingerprint(
            reference_sim
        )

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
