"""Simulation facade: run a trace through the Table 2 machine.

:class:`~repro.sim.simulator.Simulator` wires the window model, cache
hierarchy, MSHR, and memory controller together and produces a
:class:`~repro.sim.stats.SimResult` with everything the paper's
evaluation reports: IPC, demand misses, the mlp-cost distribution
(Figure 2/5), delta predictability (Table 1), and per-interval phase
samples (Figure 11).
"""

from repro import _lazy_exports

#: Public name -> defining module, resolved on first use.  Users import
#: repro.sim.parallel (run_grid), repro.sim.suite (run_suite) and
#: repro.sim.chaos from those modules.
_EXPORTS = {
    "Simulator": "repro.sim.simulator",
    "SimResult": "repro.sim.stats",
    "RunOptions": "repro.sim.options",
    "run_policy": "repro.sim.runner",
    "ipc_improvement": "repro.sim.runner",
    "ResultStore": "repro.sim.store",
    "default_store": "repro.sim.store",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
