"""Experiment registry: one module per table/figure of the paper.

Run everything with ``python -m repro.experiments``, or a single
experiment with ``python -m repro.experiments figure9``.  Each module
declares ``cells(scale, benchmarks)``, the simulation cells it reads,
and ``render(results, scale, benchmarks)`` (see
:mod:`repro.experiments.common`); the registry gives each one the same
``run(scale=None, benchmarks=None) -> Report``, written once in
:func:`repro.experiments.common.experiment`.
"""

from repro.experiments.common import experiment
from repro.experiments import (
    calibration,
    cbs_comparison,
    cost_validation,
    dip_comparison,
    prefetch_interaction,
    sensitivity,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure8,
    figure9,
    figure10,
    figure11,
    oracle_regret,
    overhead,
    table1,
    table2,
    table3,
)

#: Registry in paper order.  Values are the experiment modules.
EXPERIMENTS = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "cbs": cbs_comparison,
    "oracle": oracle_regret,
    "overhead": overhead,
    "sensitivity": sensitivity,
    "dip": dip_comparison,
    "prefetch": prefetch_interaction,
    "costmodel": cost_validation,
    "calibration": calibration,
}

for _module in EXPERIMENTS.values():
    _module.run = experiment(_module.cells, _module.render)
del _module

__all__ = ["EXPERIMENTS"]
