"""The oracle referee: property, differential, and regression battery.

Three layers, per the oracle's contract:

* **Property tests** (seeded-random always; hypothesis-generated when
  available): no registered policy may ever report fewer demand misses
  than the per-set OPT bound, or fewer stall cycles than the
  cost-weighted-OPT floor, on the same trace and machine config.  Run
  over random small traces and the committed ChampSim fixture.
* **Differential tests**: ``ehc(1)`` (predict "last interval repeats")
  must make Belady's per-set decisions on strictly periodic streams,
  where the prediction is exact.
* **Regression tests** for the ``collapse_consecutive`` /
  ``next_use_distances`` edge cases the oracle leans on — previously
  only exercised indirectly through the Figure 1 analysis.
* **Native against reference**: the C oracle's report equals the
  Python passes' field by field (floats bit for bit), and malformed
  input to the C entry point raises instead of crashing.
* **An independent bound**: Sleator–Tarjan's LRU-versus-OPT
  competitiveness, held against both oracle paths.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import oracle
from repro.analysis.oracle import (
    annotate_result,
    oracle_report,
    oracle_store_key,
)
from repro.cache.replacement.belady import (
    NEVER,
    BeladyPolicy,
    collapse_consecutive,
    next_use_distances,
)
from repro.config import (
    CacheGeometry,
    MachineConfig,
    MemoryConfig,
    MSHRConfig,
    ProcessorConfig,
)
from repro.sim.simulator import Simulator
from repro.trace.packed import PackedTrace
from repro.trace.record import IFETCH, LOAD, STORE, Access
from repro.workloads import BENCHMARKS

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in CI
    HAVE_HYPOTHESIS = False

FIXTURE = Path(__file__).parent / "fixtures" / "mix4k.champsim.gz"
FIXTURE_SMALL = Path(__file__).parent / "fixtures" / "mix256.champsim.trace"

#: Registered fixed policies the property battery referees.
PROPERTY_POLICIES = ("lru", "lin(4)", "plru", "lip", "ehc", "awrp")


def random_trace(seed: int, n_accesses: int = 1200, n_blocks: int = 40):
    """Seeded stream with hot blocks, stores, ifetches, and gaps."""
    rng = random.Random(seed)
    hot = [rng.randrange(n_blocks) for _ in range(6)]
    trace = []
    for _ in range(n_accesses):
        block = (
            rng.choice(hot) if rng.random() < 0.3
            else rng.randrange(n_blocks)
        )
        roll = rng.random()
        kind = STORE if roll < 0.1 else (IFETCH if roll < 0.2 else LOAD)
        trace.append(Access(64 * block, kind, gap=rng.randrange(8)))
    return trace


def assert_bounded(result, report, label=""):
    """The two floor properties, plus regret-field consistency."""
    annotated = annotate_result(result, report)
    assert annotated.miss_regret >= 0, (
        "%s: policy reported %d misses, below the OPT bound %d"
        % (label, result.demand_misses, report.opt_misses)
    )
    assert annotated.stall_regret >= 0, (
        "%s: policy reported %.0f stall cycles, below the floor %.0f"
        % (label, result.stall_cycles, report.cost_opt_stall_cycles)
    )
    assert annotated.oracle_misses == report.opt_misses
    assert annotated.oracle_stall_cycles == report.cost_opt_stall_cycles
    # Annotation must never mutate the cached original.
    assert result.miss_regret is None
    assert result.oracle_misses is None


class TestNextUseEdgeCases:
    """Regression coverage for the oracle's building blocks."""

    def test_empty_trace(self):
        assert collapse_consecutive([]) == []
        assert next_use_distances([]) == []

    def test_single_block(self):
        assert collapse_consecutive([5, 5, 5]) == [5]
        assert next_use_distances([5]) == [NEVER]

    def test_all_distinct_blocks_never_reuse(self):
        blocks = [3, 1, 4, 1, 5]
        assert collapse_consecutive(blocks) == blocks
        assert next_use_distances([3, 1, 4, 5]) == [NEVER] * 4

    def test_never_sentinel_at_trace_tail(self):
        # Every block's final occurrence carries the sentinel, and the
        # sentinel is the collation maximum (farther than any index).
        blocks = [1, 2, 1, 2]
        distances = next_use_distances(blocks)
        assert distances == [2, 3, NEVER, NEVER]
        assert all(d == NEVER or d > i for i, d in enumerate(distances))
        assert NEVER > len(blocks)

    def test_collapse_only_drops_adjacent_repeats(self):
        assert collapse_consecutive([7, 7, 2, 7, 7, 7, 2]) == [7, 2, 7, 2]

    def test_oracle_handles_empty_trace(self, small_machine):
        report = oracle_report(
            PackedTrace.from_accesses([]), small_machine, use_store=False
        )
        assert report.opt_misses == 0
        assert report.cost_opt_stall_cycles == 0.0
        assert report.l2_accesses == 0


class TestOracleBoundsRandomTraces:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_no_policy_beats_the_oracle(self, small_machine, seed):
        trace = random_trace(seed)
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)),
            small_machine,
            use_store=False,
        )
        for spec in PROPERTY_POLICIES:
            result = Simulator(small_machine, spec).run(list(trace))
            assert_bounded(result, report, "seed %d %s" % (seed, spec))

    def test_oracle_miss_bound_is_attainable_shape(self, small_machine):
        # The bound counts demand misses over the same L1-filtered
        # stream the machine sees: it can never exceed the stream's
        # demand length and never undercut its compulsory misses.
        trace = random_trace(99)
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)),
            small_machine,
            use_store=False,
        )
        assert (
            report.compulsory_misses
            <= report.opt_misses
            <= report.l2_demand_accesses
        )
        assert report.cost_opt_misses >= report.compulsory_misses

    def test_report_round_trips_and_is_deterministic(self, small_machine):
        from repro.analysis.oracle import OracleReport

        trace = PackedTrace.from_accesses(list(random_trace(7)))
        first = oracle_report(trace, small_machine, use_store=False)
        second = oracle_report(trace, small_machine, use_store=False)
        assert first == second
        assert OracleReport.from_dict(first.to_dict()) == first


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestOracleBoundsGenerated:
    @settings(max_examples=20, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.sampled_from([LOAD, STORE, IFETCH]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=250,
        )
    )
    def test_lru_and_ehc_never_beat_the_bounds(self, accesses):
        config = MachineConfig(
            processor=ProcessorConfig(),
            l1i=CacheGeometry(64, 64, 1, 1),
            l1d=CacheGeometry(64, 64, 1, 1),
            l2=CacheGeometry(4 * 4 * 64, 64, 4, 15),
            mshr=MSHRConfig(n_entries=32),
            memory=MemoryConfig(),
        )
        trace = [
            Access(64 * block, kind, gap=gap)
            for block, kind, gap in accesses
        ]
        report = oracle_report(
            PackedTrace.from_accesses(list(trace)), config, use_store=False
        )
        for spec in ("lru", "ehc"):
            result = Simulator(config, spec).run(list(trace))
            assert result.demand_misses >= report.opt_misses
            assert result.stall_cycles >= report.cost_opt_stall_cycles


class TestOracleBoundsChampsimFixture:
    @pytest.fixture(scope="class")
    def fixture_setup(self):
        from repro.workloads import build_workload, experiment_config

        trace = build_workload("champsim:%s" % FIXTURE, scale=1.0)
        config = experiment_config()
        report = oracle_report(trace, config, use_store=False)
        return trace, config, report

    @pytest.mark.parametrize(
        "spec", ["lru", "lin(4)", "sbar", "ehc", "awrp"]
    )
    def test_fixture_policies_respect_bounds(self, fixture_setup, spec):
        trace, config, report = fixture_setup
        result = Simulator(config, spec).run(trace)
        assert_bounded(result, report, "mix4k %s" % spec)


class TestEhcHorizonOneIsBelady:
    """``ehc(1)`` degenerates to Belady where its prediction is exact.

    On a strictly periodic stream in which every block recurs with a
    constant interval ([A,B,A,C] per set, so A has period 2 and B/C
    period 4 in L2-visible accesses), "last interval repeats" *is* the
    oracle, and first-touch blocks (predicted never-reused) coincide
    with Belady's farthest-next-use choice; the victim streams must be
    identical from the first eviction on.
    """

    @staticmethod
    def _config() -> MachineConfig:
        # One-block L1s pass the (repeat-free) stream through; 4-set
        # 2-way L2 so a 3-block per-set working set forces evictions.
        return MachineConfig(
            processor=ProcessorConfig(),
            l1i=CacheGeometry(64, 64, 1, 1),
            l1d=CacheGeometry(64, 64, 1, 1),
            l2=CacheGeometry(4 * 2 * 64, 64, 2, 15),
            mshr=MSHRConfig(n_entries=32),
            memory=MemoryConfig(),
        )

    @staticmethod
    def _periodic_trace(reps: int = 60):
        # Per set s: blocks s, s+4, s, s+8 — the unit repeats `reps`
        # times, interleaved across sets so no block repeats
        # back-to-back globally.
        trace = []
        for _ in range(reps):
            for offset in (0, 4, 0, 8):
                for set_index in range(4):
                    trace.append(
                        Access(64 * (set_index + offset), LOAD, gap=0)
                    )
        return trace

    def test_victim_streams_identical(self):
        from tests.test_differential import victim_stream

        config = self._config()
        trace = self._periodic_trace()
        blocks = [access.address >> 6 for access in trace]
        # Belady over the periodic *extension* (doubled stream, first
        # half's distances): ehc(1) models an endless periodic stream,
        # so the oracle must not "know" the trace stops — with the raw
        # distances the two legitimately diverge in the final period,
        # where true OPT evicts the blocks whose next use is NEVER.
        next_use = next_use_distances(blocks * 2)[: len(blocks)]
        belady = BeladyPolicy(next_use, expected_blocks=blocks)
        ehc_events, ehc_result = victim_stream("ehc(1)", config, trace)
        opt_events, opt_result = victim_stream(belady, config, trace)
        assert ehc_events, "periodic trace produced no L2 evictions"
        assert ehc_events == opt_events
        assert ehc_result.demand_misses == opt_result.demand_misses
        assert ehc_result.cycles == opt_result.cycles

    def test_ehc_diverges_from_lru_somewhere(self, small_machine):
        """Sanity: the equivalence above has teeth."""
        from tests.test_differential import victim_stream

        for seed in range(5):
            trace = random_trace(seed)
            ehc_events, _ = victim_stream("ehc(1)", small_machine, trace)
            lru_events, _ = victim_stream("lru", small_machine, trace)
            if ehc_events != lru_events:
                return
        pytest.fail("ehc(1) never diverged from lru on any seed")


class TestOracleStoreCaching:
    def test_report_cached_by_content_digest(self, small_machine):
        from repro.sim.store import default_store

        trace = PackedTrace.from_accesses(list(random_trace(11)))
        store = default_store()
        assert store is not None, "conftest should isolate a store"
        key = oracle_store_key(trace.content_digest(), small_machine)
        first = oracle_report(trace, small_machine)
        assert store.contains(key)
        hits_before = store.hits
        second = oracle_report(trace, small_machine)
        assert second == first
        assert store.hits == hits_before + 1

    def test_key_varies_with_trace_and_config(self, small_machine):
        from repro.workloads import experiment_config

        a = PackedTrace.from_accesses(list(random_trace(1)))
        b = PackedTrace.from_accesses(list(random_trace(2)))
        key_a = oracle_store_key(a.content_digest(), small_machine)
        assert key_a != oracle_store_key(b.content_digest(), small_machine)
        assert key_a != oracle_store_key(
            a.content_digest(), experiment_config()
        )


class TestSuiteOracleIntegration:
    def test_suite_rows_carry_regret_columns(self):
        from repro.sim.suite import run_suite

        suite = run_suite(
            policies=("lru", "ehc"),
            benchmarks=("art",),
            scale=0.05,
            oracle=True,
        )
        rows = suite.to_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["oracle_misses"] == suite.oracle["art"]["opt_misses"]
            assert row["miss_regret"] >= 0
            assert row["stall_regret"] >= 0
        header = suite.to_csv().splitlines()[0]
        for column in ("oracle_misses", "oracle_stall_cycles",
                       "miss_regret", "stall_regret"):
            assert column in header

    def test_columns_default_to_none_without_oracle(self):
        from repro.sim.suite import run_suite

        suite = run_suite(
            policies=("lru",), benchmarks=("art",), scale=0.05
        )
        (row,) = suite.to_rows()
        assert row["miss_regret"] is None
        assert suite.oracle is None


# -- native oracle ---------------------------------------------------

HAVE_NATIVE_ORACLE = oracle.native_oracle() is not None
needs_native_oracle = pytest.mark.skipif(
    not HAVE_NATIVE_ORACLE, reason="extension not built"
)


def python_report(trace, config):
    """The report from the Python passes alone (the reference)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_oracle", None)
        return oracle_report(trace, config, use_store=False)


def native_report(trace, config):
    """The report from the C passes; fails unless they ran."""
    calls = []
    real = oracle.native_oracle()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_oracle",
                      lambda *args: calls.append(args) or real(*args))
        report = oracle_report(trace, config, use_store=False)
    assert calls, "the native oracle did not run"
    return report


def assert_identical(native, reference):
    """Equal field by field, floats bit for bit."""
    for name, value in reference.to_dict().items():
        got = getattr(native, name)
        assert type(got) is type(value), name
        if isinstance(value, float):
            assert got.hex() == value.hex(), (name, got, value)
        else:
            assert got == value, (name, got, value)


@needs_native_oracle
class TestNativeOracleDifferential:
    """The C passes and the Python passes report the same bounds."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_surrogates(self, name):
        from repro.workloads import build_workload, experiment_config

        trace = build_workload(name, scale=0.25)
        config = experiment_config()
        assert_identical(native_report(trace, config),
                         python_report(trace, config))

    @pytest.mark.parametrize("fixture", [FIXTURE, FIXTURE_SMALL])
    def test_champsim_fixtures(self, fixture):
        from repro.workloads import build_workload, experiment_config

        trace = build_workload("champsim:%s" % fixture, scale=1.0)
        config = experiment_config()
        assert_identical(native_report(trace, config),
                         python_report(trace, config))

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    def test_generated_with_wrong_path(self):
        @settings(max_examples=60, deadline=None)
        @given(
            accesses=st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=47),
                    st.sampled_from([LOAD, STORE, IFETCH]),
                    st.integers(min_value=0, max_value=200),
                    st.booleans(),
                ),
                max_size=300,
            ),
            l1_ways=st.sampled_from([1, 2]),
            l2_sets=st.sampled_from([1, 2, 3, 4]),
            l2_ways=st.integers(min_value=1, max_value=5),
            window=st.sampled_from([1, 16, 128]),
            mshr=st.sampled_from([1, 4, 32]),
        )
        def check(accesses, l1_ways, l2_sets, l2_ways, window, mshr):
            config = MachineConfig(
                processor=ProcessorConfig(window_size=window),
                l1i=CacheGeometry(64 * l1_ways, 64, l1_ways, 1),
                l1d=CacheGeometry(2 * 64 * l1_ways, 64, l1_ways, 1),
                l2=CacheGeometry(l2_sets * l2_ways * 64, 64, l2_ways, 15),
                mshr=MSHRConfig(n_entries=mshr),
                memory=MemoryConfig(),
            )
            trace = PackedTrace.from_accesses([
                Access(64 * block, kind, gap=gap, wrong_path=wrong)
                for block, kind, gap, wrong in accesses
            ])
            assert_identical(native_report(trace, config),
                             python_report(trace, config))

        check()

    def test_cache_past_the_native_range_overflows(self):
        from tests.test_native import _survives

        assert _survives("""
            from repro.analysis import oracle
            from repro.trace.packed import PackedTrace
            from repro.workloads import experiment_config
            a = list(oracle._native_args(PackedTrace.from_accesses([]),
                                         experiment_config()))
            a[7] = (1 << 40, 1 << 40)
            try:
                oracle.native_oracle()(*a)
            except OverflowError:
                print("OverflowError")
        """) == "OverflowError"

    def test_past_2_53_instructions_takes_python(self, small_machine):
        trace = PackedTrace.from_accesses(
            [Access(64 * i, LOAD, gap=1 << 52) for i in range(4)]
        )
        with pytest.raises(OverflowError):
            oracle.native_oracle()(*oracle._native_args(trace, small_machine))
        report = oracle_report(trace, small_machine, use_store=False)
        assert report == python_report(trace, small_machine)
        assert report.instructions == 4 * ((1 << 52) + 1)


@needs_native_oracle
class TestNativeOracleMalformedInput:
    """Bad columns and machines raise; none crashes the interpreter.

    Each case runs in a child interpreter (see ``_survives``), so an
    out-of-bounds read fails the test instead of killing pytest.
    """

    @pytest.mark.parametrize("mutation", [
        # truncated or mis-typed column buffers
        "a[0] = a[0].tobytes()[:-1]",
        "a[0] = array('i', a[0])",
        "a[1] = array('q', a[1])",
        "a[2] = list(a[2])",
        "a[3] = array('q', [0] * len(a[3]))",
        "a[2] = memoryview(a[2]).cast('B')[:-3]",
        # mismatched column lengths
        "a[1] = a[1][:-1]",
        "a[2] = a[2] + array('q', [0])",
        # a bitset of the wrong size
        "a[3] = a[3] + bytearray(1)",
        "a[3] = bytearray()",
        # zero sets or ways, a non-positive window
        "a[5] = (0, 2)",
        "a[6] = (4, 0)",
        "a[7] = (0, 16)",
        "a[7] = (4, -1)",
        "a[8] = 0",
        "a[8] = -128",
        "a[9] = 0",
        "a[11] = 0",
        "a[10] = float('nan')",
        "a[4] = 64",
        # negative addresses, gaps, unknown kinds
        "a[0] = array('q', [-64] * len(a[0]))",
        "a[2] = array('q', [-1] * len(a[2]))",
        "a[1] = array('b', [7] * len(a[1]))",
    ])
    def test_rejected(self, mutation):
        from tests.test_native import _survives

        assert _survives("""
            from array import array
            from repro.analysis import oracle
            from repro.trace.packed import PackedTrace
            from repro.trace.record import Access
            from repro.workloads import experiment_config
            trace = PackedTrace.from_accesses(
                [Access(64 * (i %% 37), i %% 3, gap=i %% 5) for i in range(300)])
            a = list(oracle._native_args(trace, experiment_config()))
            %s
            try:
                oracle.native_oracle()(*a)
            except (ValueError, TypeError) as error:
                print(type(error).__name__)
        """ % mutation) in ("ValueError", "TypeError")


def lru_misses(blocks, n_sets, ways):
    """Misses of a plain per-set LRU cache over an L2-visible stream."""
    sets = [[] for _ in range(n_sets)]
    misses = 0
    for block in blocks:
        lru = sets[block % n_sets]
        if block in lru:
            lru.remove(block)
        else:
            misses += 1
            if len(lru) == ways:
                lru.pop(0)
        lru.append(block)
    return misses


def assert_lru_competitive(trace, config, k):
    """Sleator–Tarjan per L2 set, summed over the sets.

    LRU with k ways misses at most k/(k-h+1) x OPT with h <= k ways
    plus k per set, on the same (wrong-path-free) L2-visible stream;
    OPT_h is the oracle's Belady count on the same sets at h ways.
    """
    n_sets = config.l2.n_sets
    stream = oracle._l1_filter(trace, config)
    assert all(stream.demands)
    lru = lru_misses(stream.blocks, n_sets, k)
    for h in range(1, k + 1):
        l2 = CacheGeometry(n_sets * h * config.l2.line_bytes,
                           config.l2.line_bytes, h, config.l2.hit_latency)
        opt_h = oracle_report(trace, replace(config, l2=l2),
                              use_store=False).opt_misses
        assert lru * (k - h + 1) <= k * opt_h + k * n_sets * (k - h + 1), (
            "LRU(%d) missed %d times, over %d/(%d) x OPT(%d)=%d + %d x %d"
            % (k, lru, k, k - h + 1, h, opt_h, k, n_sets)
        )
        if h == k:
            assert opt_h <= lru


@pytest.fixture(params=["native", "python"])
def oracle_path(request, monkeypatch):
    """Run a test against the C oracle, then against the Python one."""
    if request.param == "python":
        monkeypatch.setattr(oracle, "_oracle", None)
    elif not HAVE_NATIVE_ORACLE:
        pytest.skip("extension not built")
    return request.param


class TestLruCompetitiveWithOpt:
    """An independent check of the Belady count, from outside it."""

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    def test_generated_traces(self, oracle_path):
        @settings(max_examples=40, deadline=None)
        @given(
            accesses=st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=40),
                    st.sampled_from([LOAD, STORE, IFETCH]),
                ),
                max_size=400,
            ),
            n_sets=st.sampled_from([1, 2, 4]),
            k=st.integers(min_value=1, max_value=6),
        )
        def check(accesses, n_sets, k):
            config = MachineConfig(
                processor=ProcessorConfig(),
                l1i=CacheGeometry(64, 64, 1, 1),
                l1d=CacheGeometry(64, 64, 1, 1),
                l2=CacheGeometry(n_sets * k * 64, 64, k, 15),
                mshr=MSHRConfig(n_entries=32),
                memory=MemoryConfig(),
            )
            trace = PackedTrace.from_accesses(
                [Access(64 * block, kind) for block, kind in accesses]
            )
            assert_lru_competitive(trace, config, k)

        check()

    @pytest.mark.parametrize("fixture", [FIXTURE, FIXTURE_SMALL])
    def test_champsim_fixtures(self, fixture, oracle_path):
        from repro.workloads import build_workload, experiment_config

        trace = build_workload("champsim:%s" % fixture, scale=1.0)
        config = experiment_config()
        # Four sets' worth of the experiment L2 keep the OPT replays
        # short while the fixture still fills them.
        small = replace(config, l2=CacheGeometry(
            4 * 8 * config.l2.line_bytes, config.l2.line_bytes, 8,
            config.l2.hit_latency))
        assert_lru_competitive(trace, small, 8)
