"""repro.api — the blessed public surface, in one import.

The package grew across many layers (simulator, parallel engine,
suite driver, analysis, job service), each with its own module path.
This facade re-exports the stable, supported names so user code needs
exactly one import and never reaches into internals::

    from repro.api import RunOptions, run_suite, submit

    # local execution (serial or multiprocess):
    suite = run_suite(policies=("lru", "lin(4)"),
                      options=RunOptions(workers=4))

    # or hand the same grid to a running job service:
    job = submit(["mcf", "art"], ["lru", "lin(4)"], port=7663)

What belongs here: entry points (:func:`run_policy`,
:func:`run_grid`, :func:`run_suite`, :func:`submit`), their options
object (:class:`RunOptions`), the extension registries
(:func:`register_policy`, :func:`register_workload`), the spec parsers
(:func:`parse_policy_spec`, :func:`parse_workload_spec`), and the
offline oracle (:func:`oracle_report`).  Everything else — kernels,
stores, schedulers — is implementation: importable, but not part of
the compatibility surface this module promises.

Names resolve lazily so ``import repro.api`` stays cheap even though
the surface spans heavy modules.
"""

from repro import _lazy_exports

#: name -> defining module.  The compatibility surface: additions are
#: fine; a removal or rename migrates every caller in the same change
#: instead of leaving a deprecated alias behind.
_SURFACE = {
    # execute
    "run_policy": "repro.sim.runner",
    "run_grid": "repro.sim.parallel",
    "run_suite": "repro.sim.suite",
    "RunOptions": "repro.sim.options",
    # extend
    "register_policy": "repro.cache.replacement",
    "register_workload": "repro.workloads",
    # parse specs
    "parse_policy_spec": "repro.cache.replacement",
    "parse_workload_spec": "repro.workloads",
    # analyze
    "oracle_report": "repro.analysis.oracle",
    # the job service client
    "submit": "repro.service.client",
}

__all__ = sorted(_SURFACE)

__getattr__, __dir__ = _lazy_exports(globals(), _SURFACE)
