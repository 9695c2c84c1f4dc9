"""Integration: telemetry through the runner, store, and worker pool.

The load-bearing guarantee: metric snapshots are pure functions of the
simulated work, so running the same grid serially or across a worker
pool merges to bit-identical snapshots — scheduling order, worker
count, and cache hits cannot leak into the numbers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.sim import runner
from repro.sim.options import RunOptions
from repro.sim.runner import Task
from repro.sim.store import default_store, store_key
from repro.sim.suite import run_suite

POLICIES = ("lru", "lin(4)")
BENCHMARKS = ("mcf", "art")
SCALE = 0.05


@pytest.fixture(autouse=True)
def _metrics_on(tmp_path):
    """Enable metrics with a test-local store."""
    saved_store = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    obs.configure(metrics=True)
    runner.clear_cache()
    yield
    obs.configure(metrics=False)
    runner.clear_cache()
    if saved_store is not None:
        os.environ["REPRO_CACHE_DIR"] = saved_store
    else:
        os.environ.pop("REPRO_CACHE_DIR", None)


def _fresh_suite(workers: int, store_dir: str):
    """Run the grid against its own cold store."""
    os.environ["REPRO_CACHE_DIR"] = store_dir
    runner.clear_cache()
    return run_suite(
        policies=POLICIES,
        benchmarks=BENCHMARKS,
        scale=SCALE,
        options=RunOptions(workers=workers),
    )


class TestSerialParallelEquality:
    def test_merged_metrics_identical(self, tmp_path):
        serial = _fresh_suite(0, str(tmp_path / "serial"))
        single = _fresh_suite(1, str(tmp_path / "single"))
        parallel = _fresh_suite(4, str(tmp_path / "parallel"))
        reference = json.dumps(serial.merged_metrics(), sort_keys=True)
        assert serial.merged_metrics() is not None
        assert not single.failures and not parallel.failures
        assert json.dumps(single.merged_metrics(), sort_keys=True) == (
            reference
        )
        assert json.dumps(parallel.merged_metrics(), sort_keys=True) == (
            reference
        )

    def test_counters_cover_the_grid(self, tmp_path):
        suite = _fresh_suite(0, str(tmp_path / "serial2"))
        metrics = suite.merged_metrics()
        runs = metrics["counters"]["sim.runs"][""]
        assert runs == len(POLICIES) * len(BENCHMARKS)
        total_misses = sum(
            cell.demand_misses
            for row in suite.results.values()
            for cell in row.values()
        )
        assert metrics["counters"]["sim.demand_misses"][""] == total_misses


class TestMetricsThroughTheCaches:
    def test_snapshot_survives_store_round_trip(self):
        result = runner.run_policy("mcf", "lru", scale=SCALE)
        assert result.metrics is not None
        hits = default_store().hits
        reloaded = runner.run_policy("mcf", "lru", scale=SCALE)
        assert default_store().hits == hits + 1
        assert json.dumps(reloaded.metrics, sort_keys=True) == json.dumps(
            result.metrics, sort_keys=True
        )
        assert reloaded.metrics["counters"]["sim.runs"][""] == 1

    def test_metrics_flag_is_part_of_the_keys(self):
        """Results computed with metrics on can't serve a metrics-off
        request (and vice versa): the store key includes the flag."""
        task = Task("mcf", "lru", SCALE)
        key_on = store_key(task)
        runner.run_task(task)
        assert default_store().contains(key_on)
        obs.configure(metrics=False)
        assert store_key(task) != key_on
        simulations = runner.cache_stats()["simulations"]
        assert runner.run_task(task).metrics is None
        assert runner.cache_stats()["simulations"] == simulations + 1

    def test_disabled_results_carry_no_metrics(self):
        obs.configure(metrics=False)
        runner.clear_cache()
        result = runner.run_policy("mcf", "lru", scale=SCALE)
        assert result.metrics is None


class TestSuiteJson:
    def test_to_json_embeds_merged_metrics(self, tmp_path):
        suite = _fresh_suite(0, str(tmp_path / "json-store"))
        payload = json.loads(suite.to_json())
        assert payload["metrics"]["counters"]["sim.runs"][""] == len(
            POLICIES
        ) * len(BENCHMARKS)
