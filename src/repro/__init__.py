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

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Each resolves on first
#: use, so ``python -m repro store --stats`` loads no simulator.
_EXPORTS = {
    "Simulator": "repro.sim.simulator",
    "SimResult": "repro.sim.stats",
    "MachineConfig": "repro.config",
    "baseline_config": "repro.config",
    "scaled_config": "repro.config",
    "register_policy": "repro.cache.replacement.registry",
    "parse_policy_spec": "repro.cache.replacement.registry",
    "available_policies": "repro.cache.replacement.registry",
    "build_workload": "repro.workloads.registry",
    "parse_workload_spec": "repro.workloads.registry",
    "register_workload": "repro.workloads.registry",
    "available_workloads": "repro.workloads.registry",
    "experiment_config": "repro.workloads.spec2000",
    "BENCHMARKS": "repro.workloads.spec2000",
    "LRUPolicy": "repro.cache.replacement.lru",
    "LINPolicy": "repro.cache.replacement.lin",
    "SBARController": "repro.sbar.sbar",
    "CBSController": "repro.sbar.cbs",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace, exports):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package facade.

    ``exports`` maps each public name to the module that defines it.
    A name is imported on first use and cached in ``namespace`` (the
    facade's globals), so every later lookup is a plain attribute hit
    and the name sits in ``vars(facade)`` as an eager import's would:
    code that patches ``facade.__dict__[name]`` needs that.
    """

    def __getattr__(name):
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                "module %r has no attribute %r (the public surface is: %s)"
                % (namespace["__name__"], name, ", ".join(sorted(exports)))
            ) from None
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
