"""repro: a reproduction of "A Case for MLP-Aware Cache Replacement".

Qureshi, Lynch, Mutlu, Patt — TR-HPS-2006-3 / ISCA 2006.

Quickstart::

    from repro import Simulator, build_workload, experiment_config

    trace = build_workload("mcf")
    lru = Simulator(experiment_config(), "lru").run(trace)
    mix = build_workload("interleave(mcf,art)")
    lin = Simulator(experiment_config(), "lin(4)").run(mix)
    print(lru.ipc, lin.ipc)

The package layers, bottom up:

* :mod:`repro.trace`, :mod:`repro.workloads` — access traces and the
  SPEC CPU2000 surrogates.
* :mod:`repro.memory`, :mod:`repro.cache`, :mod:`repro.mlp`,
  :mod:`repro.cpu` — the substrates: DRAM/bus, tag stores and
  replacement policies, the MSHR with Algorithm 1, and the
  out-of-order window model.
* :mod:`repro.sbar` — the adaptive mechanisms (CBS, SBAR) and the
  analytical sampling model.
* :mod:`repro.sim` — the top-level simulator.
* :mod:`repro.experiments` — one module per table/figure of the paper
  (also a CLI: ``python -m repro.experiments``).
"""

from repro.config import MachineConfig, baseline_config, scaled_config
from repro.sim import Simulator, SimResult
from repro.workloads import (
    BENCHMARKS,
    available_workloads,
    build_workload,
    experiment_config,
    parse_workload_spec,
    register_workload,
)
from repro.cache.replacement import (
    LINPolicy,
    LRUPolicy,
    available_policies,
    parse_policy_spec,
    register_policy,
)
from repro.sbar import CBSController, SBARController

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "SimResult",
    "MachineConfig",
    "baseline_config",
    "scaled_config",
    "register_policy",
    "parse_policy_spec",
    "available_policies",
    "build_workload",
    "parse_workload_spec",
    "register_workload",
    "available_workloads",
    "experiment_config",
    "BENCHMARKS",
    "LRUPolicy",
    "LINPolicy",
    "SBARController",
    "CBSController",
    "__version__",
]
