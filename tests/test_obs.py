"""Unit tests for the observability layer (repro.obs).

Covers the two channels in isolation — metrics arithmetic and merge
semantics, and event-trace sinks — plus the environment configuration
surface and the zero-cost-when-disabled guarantee the
simulator's hot paths rely on.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left

import pytest

from repro import obs
from repro.mlp.mshr import MSHRFile
from repro.obs.events import EventTrace, MemoryEventTrace, read_events
from repro.obs.metrics import _label_key, merge_snapshots
from repro.sim.simulator import Simulator
from repro.trace.record import LOAD, Access


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with all channels disabled."""
    obs.configure(metrics=False, trace_events=None, verbose=False)
    yield
    obs.configure(metrics=False, trace_events=None, verbose=False)


class TestLabels:
    def test_empty(self):
        assert _label_key({}) == ""

    def test_sorted(self):
        assert _label_key({"b": 2, "a": 1}) == "a=1,b=2"


def _gauge(agg, value):
    return {"gauges": {"g": {"agg": agg, "values": {"": value}}}}


class TestGauge:
    """Gauges fold across snapshots by their declared aggregation."""

    def test_max_fold(self):
        merged = merge_snapshots(
            [_gauge("max", 3), _gauge("max", 7), _gauge("max", 5)]
        )
        assert merged["gauges"]["g"]["values"] == {"": 7}

    def test_min_and_sum(self):
        low = merge_snapshots([_gauge("min", 3), _gauge("min", 1)])
        assert low["gauges"]["g"]["values"] == {"": 1}
        total = merge_snapshots([_gauge("sum", 3), _gauge("sum", 4)])
        assert total["gauges"]["g"]["values"] == {"": 7}

    def test_bad_agg(self):
        with pytest.raises(ValueError):
            merge_snapshots([_gauge("avg", 1)])


class TestHistogram:
    def test_bucket_edges_inclusive(self):
        """MSHR occupancy buckets take inclusive upper edges."""
        mshr = MSHRFile(n_entries=64)
        for block in range(65):
            mshr.allocate(block, 0.0, 1.0)
        # <=1, <=2, <=4, <=8, <=16, <=24, <=32, <=64, overflow
        assert mshr.occupancy_counts == [1, 1, 2, 4, 8, 8, 8, 32, 1]


def _sim_snapshot(machine, policy="lru", n=64):
    obs.configure(metrics=True)
    return Simulator(machine, policy).run(_tiny_trace(n)).metrics


class TestRunSnapshot:
    def test_snapshot_shape_and_order(self, small_machine):
        snapshot = _sim_snapshot(small_machine)
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        for section in snapshot.values():
            assert list(section) == sorted(section)
        assert list(snapshot["counters"]["cache.accesses"]) == [
            "cache=l1d", "cache=l1i", "cache=l2"
        ]
        # End-of-run counters are present at zero; event counts only
        # once they happened.
        assert snapshot["counters"]["cache.accesses"]["cache=l1i"] == 0
        assert "cache=l1i" not in snapshot["counters"].get(
            "cache.evictions", {}
        )
        assert "sbar.psel_updates" not in snapshot["counters"]
        assert "memory.queue_full_waits" not in snapshot["counters"]
        assert snapshot["gauges"]["mshr.peak_occupancy"]["agg"] == "max"
        assert snapshot["histograms"]["mshr.occupancy"]["bounds"] == [
            1, 2, 4, 8, 16, 24, 32, 64
        ]
        json.dumps(snapshot)  # JSON-safe

    def test_snapshot_is_deterministic(self, small_machine):
        assert json.dumps(_sim_snapshot(small_machine, "sbar")) == json.dumps(
            _sim_snapshot(small_machine, "sbar")
        )


class TestMergeSnapshots:
    def _snapshot(self, count, peak, buckets):
        counts = [0, 0, 0]
        for value in buckets:
            counts[bisect_left([1, 2], value)] += 1
        return {
            "counters": {"c": {"": count}},
            "gauges": {"g": {"agg": "max", "values": {"": peak}}},
            "histograms": {"h": {"bounds": [1, 2], "values": {"": counts}}},
        }

    def test_counters_sum_gauges_fold_histograms_add(self):
        merged = merge_snapshots(
            [self._snapshot(2, 5, [0]), self._snapshot(3, 9, [2, 3])]
        )
        assert merged["counters"]["c"] == {"": 5}
        assert merged["gauges"]["g"]["values"] == {"": 9}
        assert merged["histograms"]["h"]["values"] == {"": [1, 1, 1]}

    def test_order_independent(self):
        parts = [
            self._snapshot(2, 5, [0]),
            self._snapshot(3, 9, [2]),
            self._snapshot(7, 1, [3]),
        ]
        forward = json.dumps(merge_snapshots(parts))
        backward = json.dumps(merge_snapshots(list(reversed(parts))))
        assert forward == backward

    def test_conflicting_bounds_rejected(self):
        left = {"histograms": {"h": {"bounds": [1], "values": {"": [1, 0]}}}}
        right = {"histograms": {"h": {"bounds": [2], "values": {"": [1, 0]}}}}
        with pytest.raises(ValueError):
            merge_snapshots([left, right])

    def test_empty(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


class TestEventTrace:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        trace = EventTrace(path)
        trace.emit("miss_start", block=1, issue=2.0)
        trace.emit("miss_finish", block=1, cost=3.5)
        trace.flush()
        events = read_events(path)
        assert [e["event"] for e in events] == ["miss_start", "miss_finish"]
        assert events[0]["block"] == 1
        assert events[1]["cost"] == 3.5
        assert trace.emitted == 2
        trace.close()

    def test_lazy_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventTrace(str(path))
        assert not path.exists()

    def test_foreign_pid_gets_suffixed_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        # Pretend the configuring process was someone else: this
        # process must behave like a pool worker and take its own file.
        trace = EventTrace(path, origin_pid=os.getpid() + 1)
        trace.emit("x")
        trace.flush()
        worker_path = "%s.%d" % (path, os.getpid())
        assert os.path.exists(worker_path)
        assert not os.path.exists(path)
        assert read_events(worker_path)[0]["event"] == "x"
        trace.close()

    def test_memory_sink(self):
        sink = MemoryEventTrace()
        sink.emit("a", x=1)
        sink.emit("b")
        sink.emit("a", x=2)
        assert [e["x"] for e in sink.of_type("a")] == [1, 2]


class TestConfiguration:
    def test_defaults_off(self):
        assert not obs.metrics_enabled()
        assert obs.trace_events_path() is None
        assert obs.default_observer() is None

    def test_configure_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        obs.configure(metrics=True, trace_events=path)
        assert obs.metrics_enabled()
        assert obs.trace_events_path() == path
        observer = obs.default_observer()
        assert observer.events is not None
        obs.configure(metrics=False, trace_events=None)
        assert not obs.metrics_enabled()
        assert obs.trace_events_path() is None

    def test_partial_configure_leaves_others(self):
        obs.configure(metrics=True)
        obs.configure(verbose=True)
        assert obs.metrics_enabled() and obs.verbose_events()


def _tiny_trace(n=64):
    return [Access(64 * (i % 16), LOAD, gap=2) for i in range(n)]


class TestZeroCostWhenDisabled:
    def test_no_observer_objects_installed(self, small_machine):
        """Disabled telemetry leaves every hook slot None — the hot
        paths then cost exactly one ``is not None`` test."""
        simulator = Simulator(small_machine, "sbar")
        assert simulator._obs is None
        for component in (
            simulator.l1i, simulator.l1d, simulator.l2,
            simulator.mshr, simulator.memory,
        ):
            assert component.observer is None
        assert simulator.controller.psel.observer is None

    def test_disabled_run_has_no_metrics(self, small_machine):
        result = Simulator(small_machine, "lru").run(_tiny_trace())
        assert result.metrics is None
        assert obs.merged_metrics([result]) is None

    def test_perf_smoke(self, small_machine):
        """Loose wall-time bound: the disabled path must not be
        dramatically slower than the fully instrumented one (they
        simulate identical work, so parity-or-better is expected)."""
        trace = _tiny_trace(2000)

        def run_disabled():
            start = time.perf_counter()
            Simulator(small_machine, "lru").run(list(trace))
            return time.perf_counter() - start

        def run_enabled():
            obs.configure(metrics=True)
            observer = obs.Observer(events=MemoryEventTrace())
            start = time.perf_counter()
            Simulator(small_machine, "lru", observer=observer).run(
                list(trace)
            )
            obs.configure(metrics=False)
            return time.perf_counter() - start

        run_disabled(), run_enabled()  # warm caches / JIT-less but fair
        disabled = min(run_disabled() for _ in range(3))
        enabled = min(run_enabled() for _ in range(3))
        # Generous 2x bound: we only guard against the disabled path
        # accidentally paying for telemetry, not against timer noise.
        assert disabled < enabled * 2.0 + 0.05


class TestObserverWiring:
    def test_explicit_observer_collects_everything(self, small_machine):
        sink = MemoryEventTrace()
        observer = obs.Observer(events=sink)
        obs.configure(metrics=True)
        trace = [Access(64 * i, LOAD, gap=1) for i in range(64)]
        result = Simulator(small_machine, "lru", observer=observer).run(
            trace
        )
        assert result.metrics is not None
        counters = result.metrics["counters"]
        assert counters["sim.runs"][""] == 1
        assert counters["cache.misses"]["cache=l2"] > 0
        assert counters["cache.evictions"]["cache=l2"] > 0
        assert "mshr.occupancy" in result.metrics["histograms"]
        assert sink.of_type("miss_start")
        assert sink.of_type("miss_finish")
        assert sink.of_type("cost_quantized")
        assert sink.of_type("victim_selected")
        assert sink.of_type("run_finished")

    def test_victim_event_fields(self, small_machine):
        sink = MemoryEventTrace()
        observer = obs.Observer(events=sink)
        trace = [Access(64 * i, LOAD, gap=1) for i in range(64)]
        Simulator(small_machine, "lru", observer=observer).run(trace)
        event = sink.of_type("victim_selected")[0]
        assert set(event) >= {
            "cache", "set", "block", "cost_q", "dirty", "policy"
        }
        assert "ways" not in event  # verbose off

    def test_verbose_victim_events_carry_set_contents(self, small_machine):
        sink = MemoryEventTrace()
        observer = obs.Observer(events=sink, verbose=True)
        trace = [Access(64 * i, LOAD, gap=1) for i in range(64)]
        Simulator(small_machine, "lru", observer=observer).run(trace)
        # The snapshot is taken after the victim left, before the fill;
        # pick an L2 event (4 ways) so the remaining set is non-empty.
        event = [
            e for e in sink.of_type("victim_selected") if e["cache"] == "l2"
        ][0]
        assert isinstance(event["ways"], list)
        assert {"block", "cost_q", "dirty"} <= set(event["ways"][0])

    def test_psel_wiring_under_sbar(self, small_machine):
        """The SBAR PSEL carries its label and the simulator installs
        the sink."""
        sink = MemoryEventTrace()
        observer = obs.Observer(events=sink)
        simulator = Simulator(small_machine, "sbar", observer=observer)
        psel = simulator.controller.psel
        assert psel.observer is observer
        psel.increment(2)
        psel.decrement(0)
        updates = sink.of_type("psel_update")
        assert [(e["psel"], e["direction"]) for e in updates] == [
            ("sbar", "inc"), ("sbar", "dec")
        ]
        # sbar.psel_updates tallies update calls, zero amounts included,
        # not counter movement.
        assert (psel.increment_calls, psel.decrement_calls) == (1, 1)
        assert (psel.increments, psel.decrements) == (2, 0)


class TestCliMetricsOut:
    def test_sim_cli_writes_metrics_json(self, tmp_path, capsys):
        from repro.sim.__main__ import main

        metrics_path = tmp_path / "metrics.json"
        events_path = tmp_path / "events.jsonl"
        code = main([
            "--benchmark", "mcf", "--scale", "0.02",
            "--metrics-out", str(metrics_path),
            "--trace-events", str(events_path),
        ])
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert list(payload) == ["metrics"]
        assert payload["metrics"]["counters"]["sim.runs"][""] == 1
        assert read_events(str(events_path))
        # Event tracing keeps the run on the generic loop, and says so
        # once.
        assert capsys.readouterr().err.count("generic loop") == 1

    def test_metrics_out_alone_stays_native(
        self, tmp_path, capsys, small_machine
    ):
        from repro.sim.__main__ import main
        from repro.sim.native import load_extension

        metrics_path = tmp_path / "metrics.json"
        assert main([
            "--benchmark", "mcf", "--scale", "0.02", "--no-cache",
            "--metrics-out", str(metrics_path),
        ]) == 0
        assert "generic loop" not in capsys.readouterr().err
        if load_extension() is not None:
            obs.configure(metrics=True)
            result = Simulator(small_machine, "sbar").run(
                _tiny_trace()
            )
            assert result.meta["kernel_used"] == "native"
            assert result.metrics is not None

    def test_trace_events_simulate_on_a_warm_store(self, tmp_path):
        """A cell the store already holds is still simulated, and so
        narrated, when events are traced."""
        from repro.sim.__main__ import main

        argv = ["--benchmark", "mcf", "--policy", "lru", "--scale", "0.02"]
        assert main(argv) == 0  # warms the store
        events_path = tmp_path / "events.jsonl"
        assert main(argv + ["--trace-events", str(events_path)]) == 0
        obs.configure(trace_events=None)
        events = read_events(str(events_path))
        assert [e["event"] for e in events].count("run_finished") == 1
