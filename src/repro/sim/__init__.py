"""Simulation facade: run a trace through the Table 2 machine.

:class:`~repro.sim.simulator.Simulator` wires the window model, cache
hierarchy, MSHR, and memory controller together and produces a
:class:`~repro.sim.stats.SimResult` with everything the paper's
evaluation reports: IPC, demand misses, the mlp-cost distribution
(Figure 2/5), delta predictability (Table 1), and per-interval phase
samples (Figure 11).
"""

from repro.sim.options import RunOptions
from repro.sim.simulator import Simulator
from repro.sim.stats import SimResult
from repro.sim.runner import run_policy, ipc_improvement

__all__ = [
    "Simulator",
    "SimResult",
    "RunOptions",
    "run_policy",
    "ipc_improvement",
    "ResultStore",
    "default_store",
]

# repro.sim.parallel (Task/run_grid), repro.sim.suite (run_suite), and
# repro.sim.resilience/chaos are imported explicitly by users; keeping
# them out of this facade avoids paying multiprocessing imports on
# every ``import repro``.


def __getattr__(name):
    # Lazy re-export (PEP 562): importing the store here eagerly would
    # make ``python -m repro.sim.store`` (the GC/maintenance CLI) warn
    # about the module already being in sys.modules.
    if name in ("ResultStore", "default_store"):
        from repro.sim import store

        return getattr(store, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
