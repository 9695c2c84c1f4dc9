"""Performance benchmark harness (``python -m repro.bench``).

The repo's perf trajectory lives in ``BENCH_<tag>.json`` files at the
repository root, one per measurement session, produced by this package.
Each report carries a schema tag (:data:`repro.bench.report.SCHEMA`),
a machine fingerprint, micro-benchmark timings of the three hot kernels
(cache access, MSHR cost sweep, LIN victim selection) and
macro-benchmark timings of full-trace simulation runs across
representative workloads and policies.

Timings are machine-dependent and therefore only comparable within one
report pair taken on the same host; the *simulation results* embedded
in each macro entry (misses, cycles) are machine-independent and must
be identical across machines — a cheap cross-host bit-identity check.
"""

from repro.bench.macro import (
    MACRO_PHASED,
    MACRO_POLICIES,
    MACRO_PREFETCHED,
    MACRO_WORKLOADS,
    run_macro,
)
from repro.bench.micro import run_micro
from repro.bench.report import (
    SCHEMA,
    build_report,
    check_macro_cell,
    find_macro_cell,
    machine_fingerprint,
    validate_report,
)

__all__ = [
    "MACRO_PHASED",
    "MACRO_POLICIES",
    "MACRO_PREFETCHED",
    "MACRO_WORKLOADS",
    "SCHEMA",
    "build_report",
    "check_macro_cell",
    "find_macro_cell",
    "machine_fingerprint",
    "run_macro",
    "run_micro",
    "validate_report",
]
