"""End-to-end tests of the paper's headline claims.

These run the real surrogates at reduced scale and assert the *shape*
results the paper reports: who wins, who loses, and that SBAR adapts.
Trace scales are chosen so the suite stays under a couple of minutes
while the effects remain clearly outside noise.
"""

import pytest

from repro.sim.runner import clear_cache, ipc_improvement, run_policy

SCALE = 0.5


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def improvement(benchmark, policy, scale=SCALE):
    baseline = run_policy(benchmark, "lru", scale=scale)
    result = run_policy(benchmark, policy, scale=scale)
    return ipc_improvement(result, baseline)


class TestLINWins:
    """Section 5.2: LIN improves the predictable-cost benchmarks."""

    @pytest.mark.parametrize("bench", ["art", "mcf", "vpr", "sixtrack"])
    def test_lin_improves_ipc(self, bench):
        assert improvement(bench, "lin(4)") > 3.0

    def test_art_reduces_misses(self):
        baseline = run_policy("art", "lru", scale=SCALE)
        lin = run_policy("art", "lin(4)", scale=SCALE)
        assert lin.demand_misses < baseline.demand_misses * 0.85

    def test_lin_effect_grows_with_lambda(self):
        gains = [improvement("mcf", "lin(%d)" % lam) for lam in (1, 4)]
        assert gains[1] > gains[0]


class TestLINLosses:
    """Section 5.2: LIN degrades benchmarks with unpredictable cost."""

    # The cold-block poisoning that hurts LIN accumulates over the
    # trace, so these run at full scale.
    @pytest.mark.parametrize("bench", ["parser", "mgrid"])
    def test_lin_degrades_ipc(self, bench):
        assert improvement(bench, "lin(4)", scale=1.0) < -5.0

    def test_losses_have_large_deltas(self):
        # Table 1's causal link: the losing benchmarks are the ones
        # whose per-block cost is unpredictable.
        winner = run_policy("sixtrack", "lru", scale=1.0)
        loser = run_policy("mgrid", "lru", scale=1.0)
        assert (
            loser.delta_summary.average
            > winner.delta_summary.average + 50
        )


class TestSBAR:
    """Section 6: SBAR keeps the wins and eliminates the losses."""

    @pytest.mark.parametrize("bench", ["parser", "mgrid"])
    def test_sbar_rescues_lin_losses(self, bench):
        lin = improvement(bench, "lin(4)", scale=1.0)
        sbar = improvement(bench, "sbar", scale=1.0)
        assert sbar > lin + 3.0
        assert sbar > -8.0

    @pytest.mark.parametrize("bench", ["art", "mcf"])
    def test_sbar_keeps_lin_wins(self, bench):
        lin = improvement(bench, "lin(4)")
        sbar = improvement(bench, "sbar")
        assert sbar > lin * 0.7

    def test_sbar_beats_both_on_phased_ammp(self):
        # Section 7.1: ammp alternates LIN- and LRU-friendly phases.
        lin = improvement("ammp", "lin(4)", scale=1.0)
        sbar = improvement("ammp", "sbar", scale=1.0)
        assert sbar > lin + 3.0
        assert sbar > 5.0


class TestCostDistributions:
    """Figure 2 fingerprints."""

    def test_mcf_has_parallelism_two_peak(self):
        result = run_policy("mcf", "lru", scale=SCALE)
        percentages = result.cost_distribution.percentages
        # Bucket 3 (180-240 cycles) is the two-parallel-misses peak.
        assert percentages[3] == max(percentages[:7])
        assert percentages[7] > 5.0  # isolated tail

    def test_art_is_left_heavy(self):
        result = run_policy("art", "lru", scale=SCALE)
        percentages = result.cost_distribution.percentages
        assert sum(percentages[:2]) > 50.0

    def test_average_cost_below_isolated_everywhere(self):
        for bench in ("art", "mcf", "facerec"):
            result = run_policy(bench, "lru", scale=SCALE)
            assert result.cost_distribution.average < 444


class TestSeedRobustness:
    """The qualitative conclusions must not depend on the trace seed."""

    def test_lin_win_sign_stable_across_seeds(self):
        from repro.sim.simulator import Simulator
        from repro.workloads import build_workload, experiment_config

        for seed in (1, 77, 4242):
            lru = Simulator(experiment_config(), "lru").run(
                build_workload("mcf(seed=%d)" % seed, 0.3).to_accesses()
            )
            lin = Simulator(experiment_config(), "lin(4)").run(
                build_workload("mcf(seed=%d)" % seed, 0.3).to_accesses()
            )
            assert lin.ipc > lru.ipc, "seed %d flipped the mcf win" % seed

    def test_lin_loss_sign_stable_across_seeds(self):
        from repro.sim.simulator import Simulator
        from repro.workloads import build_workload, experiment_config

        for seed in (1, 77):
            lru = Simulator(experiment_config(), "lru").run(
                build_workload("mgrid(seed=%d)" % seed, 0.8).to_accesses()
            )
            lin = Simulator(experiment_config(), "lin(4)").run(
                build_workload("mgrid(seed=%d)" % seed, 0.8).to_accesses()
            )
            assert lin.ipc < lru.ipc, "seed %d flipped the mgrid loss" % seed
