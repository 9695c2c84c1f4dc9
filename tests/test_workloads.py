"""Tests for the surrogate engine and the 14 benchmark specs."""

import pytest

from repro.trace.record import LOAD, STORE
from repro.trace.synthetic import BURST_GAP, ISOLATING_GAP
from repro.workloads import BENCHMARKS, SPECS, build_workload
from repro.workloads.engine import (
    SurrogateSpec,
    _draw_thresholds,
    _skew_blocks,
    _skew_window,
    generate_surrogate,
)
from repro.workloads.spec2000 import (
    PAPER_FIG5,
    PAPER_FIG9_SBAR,
    PAPER_TABLE1,
    PAPER_TABLE3,
    experiment_config,
)

L2_BLOCKS = 1024
N_SETS = 64


def generate(spec, seed=0):
    return generate_surrogate(spec, L2_BLOCKS, N_SETS, seed=seed)


class TestEngine:
    def test_deterministic(self):
        spec = SurrogateSpec(accesses=500)
        assert generate(spec, seed=3) == generate(spec, seed=3)

    def test_seed_changes_trace(self):
        spec = SurrogateSpec(accesses=500)
        assert generate(spec, seed=1) != generate(spec, seed=2)

    def test_access_budget_respected(self):
        spec = SurrogateSpec(accesses=777)
        trace = generate(spec)
        assert len(trace) >= 777
        # At most one burst of overshoot.
        assert len(trace) <= 777 + max(spec.burst_sizes) + 3

    def test_isolated_accesses_have_big_gaps(self):
        spec = SurrogateSpec(
            accesses=300, mix_isolated=1.0, s_pool_factor=0.1,
            burst_sizes=(1,),
        )
        trace = generate(spec)
        assert all(a.gap >= ISOLATING_GAP for a in trace)

    def test_burst_structure(self):
        spec = SurrogateSpec(
            accesses=40, mix_isolated=0.0, burst_sizes=(4,),
            store_fraction=0.0,
        )
        trace = generate(spec)
        gaps = [a.gap for a in trace]
        # Pattern: big gap then three small gaps, repeated.
        for i in range(0, 40, 4):
            assert gaps[i] >= ISOLATING_GAP
            assert gaps[i + 1 : i + 4] == [BURST_GAP] * 3

    def test_store_fraction(self):
        spec = SurrogateSpec(accesses=2000, store_fraction=0.3)
        trace = generate(spec)
        stores = sum(1 for a in trace if a.kind == STORE)
        assert 0.2 < stores / len(trace) < 0.4

    def test_draw_thresholds_normalize_burst_weight(self):
        spec = SurrogateSpec(
            mix_isolated=0.5, burst_sizes=(10,), s_pool_factor=0.1
        )
        threshold_s, _, _, _ = _draw_thresholds(spec)
        # S draws must outnumber P draws 10:1 to yield equal accesses.
        assert threshold_s > 0.85

    def test_thresholds_reject_empty_spec(self):
        spec = SurrogateSpec(mix_isolated=0.0, burst_sizes=())
        with pytest.raises((ValueError, ZeroDivisionError)):
            _draw_thresholds(spec)

    def test_set_skew_restricts_sets(self):
        spec = SurrogateSpec(
            accesses=500, set_skew=(0.25, 0.5), mix_isolated=0.1,
            s_pool_factor=0.2,
        )
        trace = generate(spec)
        sets = {(a.address // 64) % N_SETS for a in trace}
        assert min(sets) >= N_SETS // 4
        assert max(sets) < N_SETS // 4 + N_SETS // 2

    def test_skew_block_preserves_distinctness(self):
        skew = (0.5, 0.25)
        mapped = set(_skew_blocks(range(10_000), 256, _skew_window(256, skew)))
        assert len(mapped) == 10_000

    def test_phases_alternate(self):
        a = SurrogateSpec(mix_isolated=1.0, s_pool_factor=0.1, burst_sizes=(1,))
        b = SurrogateSpec(mix_isolated=0.0, burst_sizes=(4,))
        spec = SurrogateSpec(accesses=200, phases=((a, 50), (b, 50)))
        trace = generate(spec)
        assert len(trace) >= 200
        # Phase A emits isolated singles; phase B emits bursts; both
        # traffic classes must be present.
        gaps = [a_.gap for a_ in trace]
        assert BURST_GAP in gaps and any(g >= ISOLATING_GAP for g in gaps)

    def test_scaled_shrinks_phases(self):
        a = SurrogateSpec()
        spec = SurrogateSpec(accesses=1000, phases=((a, 400),))
        scaled = spec.scaled(0.5)
        assert scaled.accesses == 500
        assert scaled.phases[0][1] == 200

    def test_p_random_stays_in_pool(self):
        spec = SurrogateSpec(
            accesses=400, p_random=True, p_pool_factor=0.5,
            mix_isolated=0.0, burst_sizes=(4,),
        )
        trace = generate(spec)
        pool = int(0.5 * L2_BLOCKS)
        namespace = 1 << 26
        for access in trace:
            block = access.address // 64
            assert namespace <= block < namespace + pool

    def test_traffic_classes_disjoint(self):
        spec = SurrogateSpec(
            accesses=3000, mix_isolated=0.2, s_pool_factor=0.2,
            transient_rate=0.1, mix_random=0.2, random_pool_factor=2.0,
        )
        trace = generate(spec)
        classes = set()
        for access in trace:
            block = (access.address // 64) % (1 << 26)
            if block >= (3 << 24):
                classes.add("random")
            elif block >= (1 << 25):
                classes.add("transient")
            elif block >= (1 << 24):
                classes.add("s")
            else:
                classes.add("p")
        assert classes == {"p", "s", "transient", "random"}


class TestBenchmarkRegistry:
    def test_fourteen_benchmarks(self):
        assert len(BENCHMARKS) == 14
        assert set(BENCHMARKS) == set(SPECS)

    def test_paper_metadata_complete(self):
        for name in BENCHMARKS:
            assert name in PAPER_FIG5
            assert name in PAPER_FIG9_SBAR
            assert name in PAPER_TABLE1
            assert name in PAPER_TABLE3

    def test_paper_table1_buckets_sum_to_100ish(self):
        for name, (low, mid, high, _) in PAPER_TABLE1.items():
            assert 90 <= low + mid + high <= 110, name

    def test_build_trace_deterministic(self):
        first = build_workload("mcf", 0.05).to_accesses()
        assert first == build_workload("mcf", 0.05).to_accesses()

    def test_build_trace_scale(self):
        short = build_workload("art", 0.05).to_accesses()
        longer = build_workload("art", 0.1).to_accesses()
        assert len(longer) > len(short) * 1.5

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            build_workload("gcc").to_accesses()

    def test_experiment_config_keeps_table2_memory(self):
        config = experiment_config()
        assert config.memory.isolated_miss_latency == 444
        assert config.l2.associativity == 16
        assert config.mshr.n_entries == 32

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_every_surrogate_generates(self, name):
        trace = build_workload(name, 0.02).to_accesses()
        assert len(trace) > 100
        assert all(a.kind in (LOAD, STORE) for a in trace)
