"""Tests for the k-way policy tournament controller."""

import pytest

from repro.cache.block import BlockState
from repro.cache.cache import AccessResult
from repro.cache.replacement import LINPolicy, LRUPolicy
from repro.cache.replacement.dip import BIPPolicy
from repro.cache.replacement.registry import parse_policy_spec
from repro.sbar.tournament import TournamentController
from repro.sim.runner import ipc_improvement, run_policy
from repro.sim.simulator import Simulator
from repro.workloads import build_workload, experiment_config


def make_controller(n_sets=64, leaders=4, decay=0.999):
    return TournamentController(
        n_sets,
        [LRUPolicy(), LINPolicy(4), BIPPolicy()],
        n_leaders_per_policy=leaders,
        decay=decay,
    )


def miss_at(set_index):
    return AccessResult(False, BlockState(0), set_index)


def hit_at(set_index):
    return AccessResult(True, BlockState(0), set_index)


class TestConstruction:
    def test_leader_groups_disjoint_and_sized(self):
        controller = make_controller()
        groups = [controller.leader_sets_of(c) for c in range(3)]
        assert all(len(group) == 4 for group in groups)
        flattened = [s for group in groups for s in group]
        assert len(set(flattened)) == len(flattened)

    def test_leaders_run_their_policy(self):
        controller = make_controller()
        for candidate in range(3):
            for set_index in controller.leader_sets_of(candidate):
                assert (
                    controller.policy_for_set(set_index)
                    is controller.policies[candidate]
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            TournamentController(64, [LRUPolicy()])
        with pytest.raises(ValueError):
            make_controller(decay=0.0)
        with pytest.raises(ValueError):
            TournamentController(
                8, [LRUPolicy(), LINPolicy()], n_leaders_per_policy=8
            )


class TestSelection:
    def test_initial_winner_is_first(self):
        controller = make_controller()
        assert controller.winner() == 0

    def test_misses_demote_a_candidate(self):
        controller = make_controller()
        loser_set = controller.leader_sets_of(0)[0]
        for _ in range(20):
            pending = controller.observe_access(loser_set, 1, miss_at(loser_set))
            pending(7)
        # Candidate 0 accumulated heavy cost; someone else must win.
        assert controller.winner() != 0

    def test_hits_keep_candidate_competitive(self):
        controller = make_controller()
        good = controller.leader_sets_of(1)[0]
        bad = controller.leader_sets_of(0)[0]
        for _ in range(30):
            assert controller.observe_access(good, 1, hit_at(good)) is None
            pending = controller.observe_access(bad, 1, miss_at(bad))
            pending(3)
        assert controller.winner() == 1
        followers = [
            s for s in range(64)
            if controller.policy_for_set(s) is controller.policies[1]
        ]
        assert len(followers) > 40  # followers adopted the winner

    def test_follower_accesses_do_not_update_scores(self):
        controller = make_controller()
        follower = next(
            s for s in range(64)
            if all(s not in controller.leader_sets_of(c) for c in range(3))
        )
        assert controller.observe_access(follower, 1, miss_at(follower)) is None

    def test_decay_lets_winner_change_back(self):
        controller = make_controller(decay=0.5)
        set0 = controller.leader_sets_of(0)[0]
        set1 = controller.leader_sets_of(1)[0]
        for _ in range(10):
            controller.observe_access(set0, 1, miss_at(set0))(7)
            controller.observe_access(set1, 1, hit_at(set1))
        assert controller.winner() == 1
        for _ in range(40):
            controller.observe_access(set0, 1, hit_at(set0))
            controller.observe_access(set1, 1, miss_at(set1))(7)
        # The ordering between the two active candidates flipped back
        # (the never-exercised third candidate may hold the global min).
        table = controller.score_table()
        assert table[0]["score_per_access"] < table[1]["score_per_access"]

    def test_score_table(self):
        controller = make_controller()
        table = controller.score_table()
        assert len(table) == 3
        assert sum(1 for row in table if row["is_winner"]) == 1


class TestEndToEnd:
    def test_spec_string(self, small_machine):
        fixed, controller = parse_policy_spec("tournament", small_machine)
        assert isinstance(controller, TournamentController)

    def test_tournament_never_far_from_best_single_policy(self):
        baseline = run_policy("mcf", "lru", scale=0.3)
        best = max(
            run_policy("mcf", spec, scale=0.3).ipc
            for spec in ("lru", "lin(4)", "bip")
        )
        tournament = Simulator(experiment_config(), "tournament").run(
            build_workload("mcf", 0.3).to_accesses()
        )
        assert tournament.ipc > baseline.ipc * 0.95
        assert tournament.ipc > best * 0.7

    def test_tournament_avoids_lin_regression(self):
        baseline = run_policy("parser", "lru", scale=1.0)
        lin = run_policy("parser", "lin(4)", scale=1.0)
        tournament = Simulator(experiment_config(), "tournament").run(
            build_workload("parser", 1.0).to_accesses()
        )
        gain = ipc_improvement(tournament, baseline)
        lin_gain = ipc_improvement(lin, baseline)
        assert gain > lin_gain + 3.0
