"""Workloads: SPEC CPU2000 surrogates plus the workload registry.

The paper evaluates on 14 SPEC CPU2000 SimPoint slices.  Without the
Alpha binaries and reference inputs, each benchmark is replaced by a
parameterized synthetic *surrogate* whose generator is tuned to the
benchmark's published fingerprint:

* the mlp-cost distribution shape of Figure 2 (burst sizes and the
  isolated-access fraction),
* the delta predictability of Table 1 (context noise: blocks whose
  parallelism context changes between visits),
* the working-set-vs-cache relationship that determines whether LIN
  helps (mcf, vpr, art, ...) or hurts (bzip2, parser, mgrid), and
* phase structure (ammp's two alternating phases, Section 7.1).

Beyond the surrogates, :mod:`repro.workloads.registry` opens the
scenario space: imported address traces (``champsim:/path.xz``),
CDF-driven datacenter streams (``cdf(web_search,ops=2e6)``), and
composition operators (``interleave(mcf,art)``, ``splice(mcf@0.5,
ammp)``, ``scale(twolf,0.25)``) are all first-class workload specs —
usable anywhere a benchmark name is, including CLIs and the persistent
result store.  ``build_workload(spec)`` produces the packed trace;
``experiment_config()`` is the Table 2 machine with the L2 scaled to
256 KB so that working-set effects converge within Python-feasible
trace lengths (see DESIGN.md section 2).
"""

from repro.workloads.engine import SurrogateSpec, generate_surrogate
from repro.workloads.registry import (
    SurrogateWorkload,
    UnknownWorkloadError,
    Workload,
    WorkloadSpecError,
    available_workloads,
    build_workload,
    canonical_workload_spec,
    parse_workload_spec,
    register_workload,
    split_specs,
    workload_fingerprint,
)
from repro.workloads.spec2000 import (
    BENCHMARKS,
    PAPER_FIG5,
    PAPER_FIG9_SBAR,
    PAPER_TABLE1,
    PAPER_TABLE3,
    SPECS,
    experiment_config,
)


__all__ = [
    "SurrogateSpec",
    "generate_surrogate",
    "SPECS",
    "BENCHMARKS",
    "build_workload",
    "experiment_config",
    "Workload",
    "SurrogateWorkload",
    "register_workload",
    "parse_workload_spec",
    "available_workloads",
    "canonical_workload_spec",
    "workload_fingerprint",
    "split_specs",
    "UnknownWorkloadError",
    "WorkloadSpecError",
    "PAPER_TABLE1",
    "PAPER_TABLE3",
    "PAPER_FIG5",
    "PAPER_FIG9_SBAR",
]
