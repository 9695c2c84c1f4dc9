"""Fault-injection tests: the properties the resilience layer promises.

The headline property (the chaos differential): with deterministic
crashes, delays, and store corruption injected, ``run_suite`` still
completes and its :meth:`SuiteResult.content_digest` is bit-identical
to the fault-free serial run.  Plus: store integrity (quarantine + gc),
hard-crash slot rebuild, remote tracebacks in failure reports, and
graceful KeyboardInterrupt, after which re-running the same grid
simulates only the missing cells.
"""

import json

import pytest

from repro.sim.chaos import (
    ChaosConfig,
    ChaosCrash,
    corrupt_store,
    inject,
)
from repro.sim import parallel
from repro.sim.options import RunOptions
from repro.sim.parallel import Task, run_grid
from repro.sim.runner import clear_cache, run_policy
from repro.sim.store import default_store
from repro.sim.suite import run_suite

SCALE = 0.05
BENCHMARKS = ("lucas", "mcf")
POLICIES = ("lru", "lin(4)")


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    """Every test gets its own empty store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def fast_backoff(monkeypatch):
    """Retries wait from 1 ms instead of ``BACKOFF_BASE_S``."""
    monkeypatch.setattr(parallel, "BACKOFF_BASE_S", 0.001)


def _tasks(benchmarks=BENCHMARKS, policies=POLICIES):
    return [
        Task(benchmark=benchmark, policy_spec=policy, scale=SCALE)
        for benchmark in benchmarks
        for policy in policies
    ]


def _pick_seed(labels, rate, predicate):
    """First seed whose deterministic roll pattern satisfies ``predicate``.

    Keeps the slot tests honest: instead of hoping a hard-coded seed
    fires (and recovers from) the faults we want, derive one from the
    same pure rolls the engine will use.
    """
    for seed in range(200):
        chaos = ChaosConfig(seed=seed, crash_rate=rate, hard=True)
        if predicate(chaos, labels):
            return seed
    pytest.fail("no seed under 200 produced the wanted fault pattern")


class TestChaosConfig:
    def test_parse_full_spec(self):
        chaos = ChaosConfig.parse(
            "crash=0.2,delay=0.3,delay-s=0.01,seed=7,hard=1"
        )
        assert chaos == ChaosConfig(
            seed=7, crash_rate=0.2, delay_rate=0.3, delay_s=0.01, hard=True
        )

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="key=value"):
            ChaosConfig.parse("crash")
        with pytest.raises(ValueError, match="unknown chaos knob"):
            ChaosConfig.parse("explode=1")

    def test_rolls_are_deterministic_and_uniform_range(self):
        chaos = ChaosConfig(seed=3)
        rolls = [
            chaos._roll("crash", "mcf/lru", attempt)
            for attempt in range(1, 50)
        ]
        assert rolls == [
            chaos._roll("crash", "mcf/lru", attempt)
            for attempt in range(1, 50)
        ]
        assert all(0.0 <= roll < 1.0 for roll in rolls)
        assert len(set(rolls)) == len(rolls)

    def test_rate_extremes(self):
        never = ChaosConfig(crash_rate=0.0)
        always = ChaosConfig(crash_rate=1.0, delay_rate=1.0, delay_s=0.0)
        for attempt in range(1, 10):
            assert not never.should_crash("x", attempt)
            assert never.delay("x", attempt) == 0.0
            assert always.should_crash("x", attempt)
            assert always.delay("x", attempt) == always.delay_s

    def test_inject_raises_chaoscrash(self):
        chaos = ChaosConfig(crash_rate=1.0)
        with pytest.raises(ChaosCrash, match="mcf/lru attempt 2"):
            inject(chaos, "mcf/lru", 2)
        inject(None, "mcf/lru", 2)  # no-op

    def test_hard_mode_raises_in_parent(self):
        # hard=True must only os._exit inside a worker process;
        # injection in a parent process (this one) raises.
        chaos = ChaosConfig(crash_rate=1.0, hard=True)
        with pytest.raises(ChaosCrash):
            inject(chaos, "mcf/lru", 1)


class TestStoreIntegrity:
    def test_corrupt_entries_quarantined_not_served(self):
        run_policy("lucas", "lru", scale=SCALE)
        run_policy("lucas", "lin(4)", scale=SCALE)
        store = default_store()
        keys = [path.stem for path in store.entry_paths()]
        assert len(keys) == 2
        corrupted = corrupt_store(store, fraction=1.0, seed=0)
        assert sorted(record["policy"] for record in corrupted) == [
            "lin(4)", "lru",
        ]
        for key in keys:
            assert store.load(key) is None
        assert store.quarantined >= 1  # the silent (valid-JSON) mutation
        quarantined = {p.name for p in store.quarantine_dir.glob("*.json")}
        assert quarantined  # moved aside for post-mortems, not deleted
        assert not any(store.contains(key) for key in keys)

    def test_silent_corruption_caught_by_digest(self):
        # corrupt_store's even-index shape keeps the JSON valid and
        # only bumps a result field — only the digest check can see it.
        run_policy("lucas", "lru", scale=SCALE)
        store = default_store()
        (path,) = store.entry_paths()
        payload = json.loads(path.read_text())
        assert payload["digest"]  # format v3
        corrupt_store(store, fraction=1.0, seed=0)
        assert json.loads(path.read_text())  # still parses...
        assert store.load(path.stem) is None  # ...but is never served

    def test_corruption_is_a_miss_then_recomputed(self):
        first = run_policy("lucas", "lru", scale=SCALE)
        corrupt_store(default_store(), fraction=1.0)
        second = run_policy("lucas", "lru", scale=SCALE)
        assert second.ipc == first.ipc
        assert second.demand_misses == first.demand_misses

    def test_corruption_picks_cells_not_source_hashes(
        self, tmp_path, monkeypatch
    ):
        # Store keys hash the sources.  The cells corrupt_store picks,
        # and so what a chaos run re-executes, must not change with a
        # source edit.
        from repro.sim import store as store_module

        picked = []
        for version in ("code-a", "code-b"):
            monkeypatch.setattr(store_module, "code_version",
                                lambda version=version: version)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / version))
            run_grid(_tasks())
            store = default_store()
            keys = sorted(path.stem for path in store.entry_paths())
            picked.append(corrupt_store(store, fraction=0.5, seed=7))
            assert sum(store.load(key) is None for key in keys) == len(
                picked[-1]
            )
        assert picked[0] == picked[1]
        assert 0 < len(picked[0]) < len(_tasks())

    def test_gc_prunes_stale_code_versions_and_quarantine(self):
        run_policy("lucas", "lru", scale=SCALE)
        run_policy("mcf", "lru", scale=SCALE)
        store = default_store()
        # Age one entry: pretend an older checkout wrote it.
        stale_path = store.entry_paths()[0]
        payload = json.loads(stale_path.read_text())
        payload["code"] = "0" * 16
        stale_path.write_text(json.dumps(payload))
        store.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (store.quarantine_dir / "junk.json").write_text("{broken")

        preview = store.gc(dry_run=True)
        assert preview == {
            "removed": 1, "kept": 1, "quarantine_purged": 1,
            "journals_removed": 0,
        }
        assert stale_path.exists()  # dry run touches nothing

        stats = store.gc()
        assert stats == preview
        assert not stale_path.exists()
        assert not list(store.quarantine_dir.glob("*.json"))
        assert len(store) == 1

    def test_store_cli(self, capsys, monkeypatch):
        from repro.sim.store import main as store_main

        run_policy("lucas", "lru", scale=SCALE)
        assert store_main(["--stats"]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert store_main(["--gc", "--dry-run"]) == 0
        assert "[dry run]" in capsys.readouterr().out
        assert store_main(["--clear"]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        assert store_main(["--stats"]) == 1


class TestChaosDifferential:
    def test_digest_identical_under_crashes_delays_and_corruption(
        self, fast_backoff
    ):
        baseline = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE
        )
        want = baseline.content_digest()

        corrupted = corrupt_store(default_store(), fraction=1.0, seed=7)
        assert corrupted
        chaos = ChaosConfig(
            seed=7, crash_rate=0.4, delay_rate=0.3, delay_s=0.001
        )
        suite = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(workers=2, max_retries=6, chaos=chaos),
        )
        assert not suite.failures
        assert suite.content_digest() == want
        resilience = suite.meta["resilience"]
        assert resilience["store_quarantined"] >= 1

    def test_digest_includes_merged_metrics(self, monkeypatch, fast_backoff):
        monkeypatch.setenv("REPRO_METRICS", "1")
        baseline = run_suite(
            policies=("lru",), benchmarks=("lucas",), scale=SCALE
        )
        assert baseline.merged_metrics() is not None
        chaos = ChaosConfig(seed=11, crash_rate=0.4)
        suite = run_suite(
            policies=("lru",), benchmarks=("lucas",), scale=SCALE,
            options=RunOptions(
                workers=1, max_retries=6, use_cache=False, chaos=chaos,
            ),
        )
        assert not suite.failures
        assert suite.merged_metrics() == baseline.merged_metrics()
        assert suite.content_digest() == baseline.content_digest()

    def test_chaos_cli_smoke(self, capsys):
        from repro.sim.chaos import main as chaos_main

        code = chaos_main([
            "--scale", str(SCALE), "--benchmarks", "lucas",
            "--policies", "lru,lin(4)", "--workers", "2",
            "--max-retries", "6",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "OK: chaos run digest" in captured.out


class TestPoolFaults:
    def test_hard_crash_rebuilds_pool_and_completes(self, fast_backoff):
        tasks = _tasks(benchmarks=("lucas",))
        labels = [task.label for task in tasks]
        # Exactly one hard crash, on somebody's first attempt: one dead
        # slot, one rebuild, and every retry then succeeds.
        def one_first_attempt_crash(chaos, ls):
            crashes = [
                (label, attempt)
                for label in ls
                for attempt in range(1, 9)
                if chaos.should_crash(label, attempt)
            ]
            return len(crashes) == 1 and crashes[0][1] == 1

        seed = _pick_seed(labels, 0.3, one_first_attempt_crash)
        chaos = ChaosConfig(seed=seed, crash_rate=0.3, hard=True)
        grid = run_grid(
            tasks,
            options=RunOptions(workers=2, max_retries=6, chaos=chaos),
        )
        assert not grid.failures
        assert len(grid.results) == len(tasks)
        assert grid.resilience["worker_rebuilds"] == 1
        assert set(grid.resilience) == {
            "retries", "worker_rebuilds", "store_quarantined",
        }


class TestFailureReports:
    def test_failures_carry_the_remote_traceback(self):
        suite = run_suite(
            policies=("lru", "no-such-policy"), benchmarks=("lucas",),
            scale=SCALE,
            options=RunOptions(workers=2, max_retries=0),
        )
        message = suite.failures["lucas"]["no-such-policy"]
        assert "Traceback (most recent call last)" in message
        assert "unknown policy spec" in message
        failed = [t for t in suite.meta["tasks"] if not t["ok"]]
        assert failed
        assert "unknown policy spec" in failed[0]["traceback"]
        # The compact error message is still the bare exception line.
        assert "Traceback" not in failed[0]["error"]


class TestInterruptAndResume:
    def _interrupt_after(self, count):
        calls = {"n": 0}

        def progress(report, done, total):
            calls["n"] += 1
            if calls["n"] >= count:
                raise KeyboardInterrupt

        return progress

    def test_interrupt_flushes_partial_report_and_resume_completes(
        self, tmp_path
    ):
        baseline = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE
        )
        want = baseline.content_digest()
        default_store().clear()

        partial = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
            options=RunOptions(
                workers=1, progress=self._interrupt_after(1),
            ),
        )
        assert partial.meta["interrupted"] is True
        assert "run_id" not in partial.meta
        assert len(partial.to_rows()) == 1  # one cell done, then ^C
        assert not partial.failures

        rerun = run_suite(
            policies=POLICIES, benchmarks=BENCHMARKS, scale=SCALE,
        )
        assert not rerun.failures
        assert rerun.content_digest() == want
        assert rerun.meta["cache"] == {"hits": 1, "misses": 3}
        reports = rerun.meta["tasks"]
        assert sum(1 for r in reports if not r["cache_hit"]) == 3
        assert not (tmp_path / "store" / "runs").exists()

    def test_interrupted_cli_exit_code_and_hint(self, capsys, monkeypatch):
        from repro.sim import common_cli
        from repro.sim.suite import main as suite_main

        # --progress installs common_cli.progress_printer: one that
        # interrupts after the first cell stands in for a Ctrl-C.
        monkeypatch.setattr(
            common_cli, "progress_printer", self._interrupt_after(1)
        )
        argv = [
            "--policies", "lru", "--benchmarks", "lucas,mcf",
            "--scale", str(SCALE), "--workers", "1", "--progress",
        ]
        assert suite_main(argv) == 130
        err = capsys.readouterr().err
        hint = [line for line in err.splitlines() if "interrupted" in line]
        assert hint == ["interrupted — %s" % common_cli.RERUN_HINT]
        assert "--resume" not in err and "run-" not in err

        # Following the hint finishes the same grid: one store hit.
        assert suite_main(argv[:-1]) == 0
        captured = capsys.readouterr()
        assert "lucas" in captured.out and "mcf" in captured.out
        assert "cache 1 hit / 1 miss" in captured.err
