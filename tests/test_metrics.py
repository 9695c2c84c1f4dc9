"""Metric snapshots pinned byte for byte, on both replay kernels.

``tests/golden/metrics.json`` holds the ``SimResult.metrics`` snapshot
of every registered policy on mcf at x0.05, plus one cell with a
stride prefetcher, one with phase samples and one with warm-up.  Every
metric is an end-of-run counter that both loops keep, so the native
kernel and the generic loop must each reproduce the file exactly:
same names, same labels, same values, same zero entries present or
absent.  Regenerate (after an intentional change) with::

    PYTHONPATH=src python -m pytest tests/test_metrics.py --update-golden
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cache.replacement.registry import available_policies
from repro.cpu.prefetch import prefetcher_for
from repro.sim.simulator import Simulator
from repro.trace.packed import pack_trace
from repro.workloads import build_workload, experiment_config

from .conftest import GOLDEN_DIR

SCALE = 0.05
GOLDEN = GOLDEN_DIR / "metrics.json"

#: ``label -> (policy, Simulator keyword factory)``; a factory so each
#: run gets a fresh prefetcher.
CELLS = {policy: (policy, dict) for policy in available_policies()}
CELLS["lin(4)+prefetch(2)"] = (
    "lin(4)", lambda: {"prefetcher": prefetcher_for(2)}
)
CELLS["sbar+phases(200000)"] = (
    "sbar", lambda: {"phase_interval": 200000}
)
CELLS["sbar+warmup(300000)"] = (
    "sbar", lambda: {"warmup_instructions": 300000}
)


@pytest.fixture(autouse=True)
def _metrics_on():
    obs.configure(metrics=True)
    yield
    obs.configure(metrics=False)


def _render(kernel: str):
    """``(golden text, {label: kernel_used})`` for one replay kernel."""
    trace = pack_trace(build_workload("mcf", SCALE).to_accesses())
    snapshots = {}
    kernels = {}
    for label, (policy, kwargs) in CELLS.items():
        result = Simulator(
            experiment_config(), policy, kernel=kernel, **kwargs()
        ).run(trace)
        snapshots[label] = result.metrics
        kernels[label] = result.meta["kernel_used"]
    return json.dumps(snapshots, indent=1) + "\n", kernels


@pytest.mark.parametrize("kernel", ["auto", "generic"])
def test_snapshots_match_golden(kernel, request):
    from repro.sim.native import load_extension

    if kernel == "auto" and load_extension() is None:
        pytest.skip("native extension not built")
    text, kernels = _render(kernel)
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(text)
        pytest.skip("updated golden snapshot %s" % GOLDEN.name)
    if kernel == "auto":
        # Metrics ride on the kernel; only warm-up keeps a cell off it.
        assert {
            label: used for label, used in kernels.items() if used != "native"
        } == {"sbar+warmup(300000)": "generic"}
    assert text == GOLDEN.read_text()
