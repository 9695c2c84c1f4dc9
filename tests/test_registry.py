"""Policy-registry tests: spec round-trips, user policies, splitting."""

import pytest

from repro.cache.replacement import ReplacementPolicy
from repro.cache.replacement.registry import (
    UnknownPolicyError,
    _REGISTRY,
    available_policies,
    parse_policy_spec,
    policy_fingerprint,
    register_policy,
    split_specs,
)
from repro.cache.replacement.lin import LINPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.sbar.sbar import SBARController
from repro.workloads import experiment_config

#: Every spec string documented in docs/api.md.
DOCUMENTED_SPECS = (
    "lru",
    "lin",
    "lin(4)",
    "sbar",
    "sbar(simple-static,16)",
    "sbar(rand-dynamic,32)",
    "cbs-local",
    "cbs-global",
    "lip",
    "bip",
    "dip",
    "plru",
    "cost-plru",
    "tournament",
)


class TestParsePolicySpec:
    @pytest.mark.parametrize("spec", DOCUMENTED_SPECS)
    def test_every_documented_spec_resolves(self, spec):
        fixed, controller = parse_policy_spec(spec, experiment_config())
        assert (fixed is None) != (controller is None)

    def test_case_and_whitespace_insensitive(self):
        fixed, _ = parse_policy_spec("  LIN(4) ", experiment_config())
        assert isinstance(fixed, LINPolicy)

    def test_lin_lambda_parsed(self):
        fixed, _ = parse_policy_spec("lin(3)", experiment_config())
        assert fixed.lam == 3

    def test_sbar_arguments_parsed(self):
        _, controller = parse_policy_spec(
            "sbar(simple-static,16)", experiment_config()
        )
        assert isinstance(controller, SBARController)

    def test_instances_pass_through(self):
        policy = LRUPolicy()
        fixed, controller = parse_policy_spec(policy, experiment_config())
        assert fixed is policy and controller is None

        sbar = SBARController(16, 4, n_leaders=4)
        fixed, controller = parse_policy_spec(sbar, experiment_config())
        assert controller is sbar and fixed is None

    def test_unknown_spec_lists_available_policies(self):
        with pytest.raises(ValueError) as excinfo:
            parse_policy_spec("opt-magic", experiment_config())
        message = str(excinfo.value)
        assert "opt-magic" in message
        for name in available_policies():
            assert name in message

    def test_non_policy_object_rejected(self):
        with pytest.raises(ValueError):
            parse_policy_spec(object(), experiment_config())

    def test_default_config_is_baseline(self):
        _, controller = parse_policy_spec("sbar")
        assert isinstance(controller, SBARController)


class TestRegisterPolicy:
    @pytest.fixture(autouse=True)
    def _clean_registrations(self):
        before = set(_REGISTRY)
        yield
        for name in set(_REGISTRY) - before:
            del _REGISTRY[name]

    def test_class_registration_coerces_arguments(self):
        @register_policy("always-way")
        class AlwaysWayPolicy(ReplacementPolicy):
            def __init__(self, way=0):
                self.way = way
                self.name = "always-way(%d)" % way

            def choose_victim(self, cache_set):
                return self.way

        fixed, _ = parse_policy_spec("always-way(2)", experiment_config())
        assert isinstance(fixed, AlwaysWayPolicy)
        assert fixed.way == 2
        assert "always-way" in available_policies()

    def test_factory_registration_receives_config(self):
        @register_policy("config-lin")
        def build(config, lam="1"):
            assert config.l2.n_sets > 0
            return LINPolicy(int(lam))

        fixed, _ = parse_policy_spec("config-lin(2)", experiment_config())
        assert fixed.lam == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            register_policy("lru")(lambda config: LRUPolicy())

    def test_invalid_names_rejected(self):
        for bad in ("", "a(b", "a,b"):
            with pytest.raises(ValueError):
                register_policy(bad)

    def test_user_policy_fingerprint_tracks_source(self):
        @register_policy("fp-test")
        def build(config):
            return LRUPolicy()

        assert policy_fingerprint("lru") == "builtin"
        assert policy_fingerprint("fp-test") != "builtin"

    def test_registered_spec_drives_a_simulation(self, small_machine):
        from repro.sim.simulator import Simulator
        from repro.trace.record import Access

        @register_policy("way-zero")
        class WayZero(ReplacementPolicy):
            def __init__(self):
                self.name = "way-zero"

            def choose_victim(self, cache_set):
                return 0

        trace = [Access(address=i * 64, kind=0, gap=1) for i in range(50)]
        result = Simulator(small_machine, "way-zero").run(trace)
        assert result.policy_name == "way-zero"
        assert result.instructions > 0


class TestSplitSpecs:
    def test_plain_split(self):
        assert split_specs("lru,lin(4),sbar") == ["lru", "lin(4)", "sbar"]

    def test_parenthesized_commas_preserved(self):
        assert split_specs("sbar(simple-static,16),lru") == [
            "sbar(simple-static,16)",
            "lru",
        ]
        assert split_specs("lru,sbar(rand-dynamic,32),lin(4)") == [
            "lru",
            "sbar(rand-dynamic,32)",
            "lin(4)",
        ]

    def test_whitespace_and_empties_dropped(self):
        assert split_specs(" lru , ,lin(4), ") == ["lru", "lin(4)"]

    def test_suite_cli_accepts_parenthesized_specs(self, tmp_path):
        import json

        from repro.sim.suite import main as suite_main

        json_path = str(tmp_path / "out.json")
        code = suite_main(
            [
                "--policies", "lru,sbar(simple-static,16)",
                "--benchmarks", "lucas",
                "--scale", "0.05",
                "--json", json_path,
            ]
        )
        assert code == 0
        runs = json.load(open(json_path))["runs"]
        assert {run["policy"] for run in runs} == {
            "lru", "sbar(simple-static,16)",
        }
