"""Golden-stats regression tests against committed JSON snapshots.

Tiny-configuration runs of the ``figure1`` and ``sensitivity``
experiments are compared against ``tests/golden/*.json``.  The
simulator is deterministic (seeded synthetic workloads, pure-Python
float arithmetic), so any drift here is a behavior change — either a
bug or an intentional change, in which case regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.config import MSHRConfig, scaled_config
from repro.experiments import figure1, sensitivity
from repro.sim.runner import Task, ipc_improvement, run_task
from repro.sim.simulator import Simulator
from repro.trace.packed import pack_trace
from repro.workloads import build_workload, experiment_config

#: Small but non-trivial: enough accesses for misses to overlap.
SCALE = 0.05


class TestFigure1Golden:
    def test_per_iteration_stats(self, golden_check):
        payload = {}
        for policy in ("belady", "mlp-aware (lin)", "lru"):
            misses, stalls = figure1.simulate_policy(policy)
            payload[policy] = {"misses": misses, "stalls": stalls}
        golden_check("figure1", payload)

    def test_paper_ordering_holds(self):
        """Independent of exact numbers: the paper's Figure 1 ranking."""
        belady = figure1.simulate_policy("belady")
        lin = figure1.simulate_policy("mlp-aware (lin)")
        lru = figure1.simulate_policy("lru")
        assert belady[0] < lin[0] <= lru[0]  # OPT minimizes misses
        assert lin[1] < lru[1]  # LIN takes fewer long stalls than LRU
        assert lin[1] < belady[1]  # ... and than OPT


class TestKernelGolden:
    """Full SimResult fingerprints per replay kernel, snapshotted.

    The differential tests assert the two kernels agree with *each
    other*; this golden pins both to a committed snapshot, so a change
    that shifts both in lockstep (a genuine behavior change) still
    trips a test instead of sliding through.  The observer-fallback run
    rides along: telemetry must never perturb simulated numbers.
    """

    def test_simresult_fingerprints_per_kernel(self, golden_check):
        from repro.sim.native import load_extension

        # Without the compiled extension an auto run takes the generic
        # loop; either path must hit the same snapshot.
        auto_kernel = "native" if load_extension() is not None else "generic"
        trace = pack_trace(build_workload("mcf", SCALE).to_accesses())
        payload = {}
        for policy in ("lru", "sbar"):
            per_kernel = {}
            for block, kernel in (("native", "auto"), ("generic", "generic")):
                sim = Simulator(experiment_config(), policy, kernel=kernel)
                result = sim.run(trace)
                expected = auto_kernel if kernel == "auto" else kernel
                assert sim.replay_kernel == expected, (policy, kernel)
                per_kernel[block] = result.to_dict()
            observed = Simulator(
                experiment_config(), policy,
                observer=obs.Observer(events=obs.MemoryEventTrace()),
            )
            per_kernel["observer-fallback"] = observed.run(trace).to_dict()
            assert observed.replay_kernel == "generic", policy
            payload[policy] = per_kernel
        golden_check("kernels", payload)


class TestSensitivityGolden:
    @staticmethod
    def _gain(config, benchmark):
        """LIN(4)'s IPC gain over LRU on one sensitivity machine."""
        lru, lin = (
            run_task(Task(benchmark, policy, SCALE, config=config))
            for policy in sensitivity.POLICIES
        )
        return ipc_improvement(lin, lru)

    def test_l2_capacity_sweep(self, golden_check):
        payload = {
            "%dkb" % l2_kb: self._gain(scaled_config(l2_kb), "mcf")
            for l2_kb in (64, 256)
        }
        golden_check("sensitivity_l2", payload)

    def test_mshr_sweep(self, golden_check):
        payload = {}
        for entries in (2, 32):
            config = replace(
                scaled_config(256), mshr=MSHRConfig(n_entries=entries)
            )
            payload["mshr%d" % entries] = self._gain(config, "art")
        golden_check("sensitivity_mshr", payload)
