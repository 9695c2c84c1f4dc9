"""Benchmark report schema, machine fingerprint, and validation.

A report is a plain JSON-safe dict:

.. code-block:: text

    {
      "schema": "repro.bench/v4",
      "tag": "pr8",
      "created_unix": 1754400000.0,
      "machine": {"platform": ..., "python": ..., "cpus": ...},
      "code_version": "<git commit or 'unknown'>",
      "micro": [{"name", "ops", "seconds", "ops_per_sec"}, ...],
      "macro": [{"workload", "policy", "accesses", "scale", "seconds",
                 "accesses_per_sec", "fused", "kernel",
                 "result": {"l2_misses", "cycles", "demand_misses",
                 "stall_cycles"}}, ...]
    }

v2 added two macro-cell fields: ``scale`` (the trace scale the cell
ran at, so any host can rebuild the exact trace) and ``fused`` (whether
the run took the fused replay loop — a silent fall-back to the generic
loop would otherwise read as a timing regression).

v3 added ``stall_cycles`` to the embedded result fields: with the
oracle's stall floor in the repo, stall behavior is now a first-class
comparison axis, and a policy change that trades misses for stalls
should trip the digest check even when miss counts happen to agree.

v4 added ``kernel`` to every macro cell: the replay kernel the cell was
*requested* under (``auto``/``batched``/``fused``/``generic``), so one
report can time the same workload/policy matrix per kernel and the
digest check can verify each kernel reproduces the same results.  The
``fused`` flag still records whether a fast replay loop actually ran.

v5 added ``kernel_used``: the path that actually ran (a host without
the compiled extension runs ``auto`` cells on the generic loop).  A
committed baseline therefore records both what was asked and what ran,
and a silent downgrade on a future host shows up as data.  Newer v5
cells also carry an optional ``kernel_fallback``: the native gate that
failed, or null.  A phase-sampled v5 cell carries ``phase_interval``
(a positive int) and embeds ``phase_misses``, one miss count per phase,
in its result; a cell without the field ran unsampled.  A prefetch v5
cell carries ``prefetch_degree`` (a positive int): it ran with a
default stride prefetcher of that degree; a cell without the field ran
without one.  Legacy reports stay readable (``validate_report``
accepts v2–v4; ``check_macro_cell`` compares only the fields a report
recorded and re-simulates kernel-less cells, and cells recorded under
the retired ``native``/``batched``/``fused`` kernel names, on
``auto``).

``validate_report`` is the single source of truth for that shape; the
CI perf-smoke job and the bench CLI both call it, so a report that
lands in the repo is guaranteed parseable by future tooling.
``check_macro_cell`` re-simulates one cell and compares the embedded
machine-independent result fields — the digest check CI runs against
the committed baseline (results must match across hosts; timings are
never compared).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Dict, List, Optional

#: Current report schema identifier; bump the suffix on breaking shape
#: changes so old reports stay recognizable.
SCHEMA = "repro.bench/v5"

#: Older schemas ``validate_report`` still accepts (committed baseline
#: reports from earlier PRs must stay checkable).
_LEGACY_SCHEMAS = ("repro.bench/v4", "repro.bench/v3", "repro.bench/v2")

#: Kernel names older reports recorded that no longer exist; their
#: cells re-simulate on ``auto``.
RETIRED_KERNELS = ("native", "batched", "fused")

_MICRO_FIELDS = {"name": str, "ops": int, "seconds": float,
                 "ops_per_sec": float}
_MACRO_FIELDS = {"workload": str, "policy": str, "accesses": int,
                 "scale": float, "seconds": float,
                 "accesses_per_sec": float, "fused": bool,
                 "kernel": str, "kernel_used": str, "result": dict}
#: Macro cell fields before v5 added the resolved ``kernel_used``.
_MACRO_FIELDS_V4 = {
    field: expected for field, expected in _MACRO_FIELDS.items()
    if field != "kernel_used"
}
#: Macro cell fields before v4 added the per-cell ``kernel``.
_MACRO_FIELDS_LEGACY = {
    field: expected for field, expected in _MACRO_FIELDS_V4.items()
    if field != "kernel"
}
_RESULT_FIELDS = {"l2_misses": int, "cycles": float, "demand_misses": int,
                  "stall_cycles": float}
#: Result fields required per schema version (v3 added stall_cycles).
_RESULT_FIELDS_V2 = {"l2_misses": int, "cycles": float,
                     "demand_misses": int}


def machine_fingerprint() -> Dict[str, object]:
    """Describe the host well enough to judge report comparability."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": "%s %s" % (
            platform.python_implementation(), platform.python_version()
        ),
        "cpus": os.cpu_count() or 0,
    }


def code_version() -> str:
    """Current git commit, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def build_report(
    micro: List[Dict[str, object]],
    macro: List[Dict[str, object]],
    tag: str = "local",
    created_unix: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble and validate a full benchmark report."""
    report = {
        "schema": SCHEMA,
        "tag": tag,
        "created_unix": (
            time.time() if created_unix is None else float(created_unix)
        ),
        "machine": machine_fingerprint(),
        "code_version": code_version(),
        "micro": micro,
        "macro": macro,
    }
    validate_report(report)
    return report


def _check_fields(entry: object, spec: Dict[str, type], where: str) -> None:
    if not isinstance(entry, dict):
        raise ValueError("%s: expected an object, got %r" % (where, entry))
    for field, expected in spec.items():
        if field not in entry:
            raise ValueError("%s: missing field %r" % (where, field))
        value = entry[field]
        # Accept ints where floats are declared (JSON round-trips may
        # narrow whole floats), never the reverse.
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    "%s: field %r must be a number, got %r"
                    % (where, field, value)
                )
        elif not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ValueError(
                "%s: field %r must be %s, got %r"
                % (where, field, expected.__name__, value)
            )


def validate_report(report: object) -> None:
    """Raise ``ValueError`` when ``report`` violates its schema.

    Accepts the current v5 schema and the legacy v4/v3/v2 schemas (v4
    macro cells lack ``kernel_used``, v3 additionally lack ``kernel``,
    v2 results additionally lack ``stall_cycles``); committed baseline
    reports from earlier PRs therefore stay valid.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be an object, got %r" % (report,))
    schema = report.get("schema")
    if schema != SCHEMA and schema not in _LEGACY_SCHEMAS:
        raise ValueError(
            "unknown schema %r (expected %r or one of %r)"
            % (schema, SCHEMA, _LEGACY_SCHEMAS)
        )
    if schema == SCHEMA:
        macro_fields = _MACRO_FIELDS
    elif schema == "repro.bench/v4":
        macro_fields = _MACRO_FIELDS_V4
    else:
        macro_fields = _MACRO_FIELDS_LEGACY
    result_fields = (
        _RESULT_FIELDS_V2 if schema == "repro.bench/v2" else _RESULT_FIELDS
    )
    for field, expected in (
        ("tag", str), ("created_unix", float), ("machine", dict),
        ("code_version", str), ("micro", list), ("macro", list),
    ):
        _check_fields(report, {field: expected}, "report")
    for index, entry in enumerate(report["micro"]):
        where = "micro[%d]" % index
        _check_fields(entry, _MICRO_FIELDS, where)
        if entry["seconds"] <= 0 or entry["ops_per_sec"] <= 0:
            raise ValueError("%s: timings must be positive" % where)
    for index, entry in enumerate(report["macro"]):
        where = "macro[%d]" % index
        _check_fields(entry, macro_fields, where)
        if entry["seconds"] <= 0 or entry["accesses_per_sec"] <= 0:
            raise ValueError("%s: timings must be positive" % where)
        if entry["scale"] <= 0:
            raise ValueError("%s: scale must be positive" % where)
        for field in ("phase_interval", "prefetch_degree"):
            if field in entry:
                _check_fields(entry, {field: int}, where)
                if entry[field] <= 0:
                    raise ValueError(
                        "%s: %s must be positive" % (where, field)
                    )
        _check_fields(entry["result"], result_fields, where + ".result")


def find_macro_cell(
    report: Dict[str, object],
    workload: str,
    policy: str,
    kernel: Optional[str] = None,
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
) -> Dict[str, object]:
    """Return the macro entry for ``workload``/``policy`` or raise.

    ``kernel`` narrows the match in a v4 report that times the same
    cell under several kernels; ``None`` returns the first match (the
    only one in legacy reports).  ``phase_interval`` selects the
    phase-sampled cell and ``prefetch_degree`` the prefetch cell;
    ``None`` the plain one.
    """
    for entry in report["macro"]:
        if (
            entry["workload"] == workload
            and entry["policy"] == policy
            and entry.get("phase_interval") == phase_interval
            and entry.get("prefetch_degree") == prefetch_degree
            and (kernel is None or entry.get("kernel") == kernel)
        ):
            return entry
    raise ValueError(
        "report has no macro cell %s"
        % cell_label(workload, policy, kernel, phase_interval,
                     prefetch_degree)
    )


def cell_label(
    workload: str,
    policy: str,
    kernel: Optional[str] = None,
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
) -> str:
    """``workload/policy[/kernel][@phase=N][@prefetch=N]``."""
    label = "%s/%s" % (workload, policy)
    if kernel is not None:
        label += "/" + kernel
    if phase_interval is not None:
        label += "@phase=%d" % phase_interval
    if prefetch_degree is not None:
        label += "@prefetch=%d" % prefetch_degree
    return label


def check_macro_cell(
    report: Dict[str, object],
    workload: str,
    policy: str,
    kernel: Optional[str] = None,
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
) -> Dict[str, object]:
    """Re-simulate one macro cell and compare its embedded results.

    The comparison covers only the machine-independent ``result``
    fields — never timings — so it must pass on any host for a report
    produced by the same code.  The re-simulation requests the cell's
    recorded kernel, or ``auto`` for kernel-less cells and retired
    kernel names: results never depend on the kernel, so the digests
    must agree regardless.
    Returns the freshly simulated result payload on success; raises
    ``ValueError`` with a field-by-field diff on mismatch.
    """
    from repro.bench.macro import macro_result_fields, simulate_cell

    entry = find_macro_cell(report, workload, policy, kernel, phase_interval,
                            prefetch_degree)
    recorded_kernel = entry.get("kernel", "auto")
    if recorded_kernel in RETIRED_KERNELS:
        recorded_kernel = "auto"
    result = simulate_cell(
        workload, policy, entry["scale"], kernel=recorded_kernel,
        phase_interval=phase_interval, prefetch_degree=prefetch_degree,
    )
    fresh = macro_result_fields(result)
    recorded = entry["result"]
    # Compare only fields the report recorded: a legacy v2 baseline
    # has no stall_cycles but its cells must stay checkable.
    mismatches = [
        "%s: recorded %r, simulated %r"
        % (field, recorded[field], fresh.get(field))
        for field in tuple(_RESULT_FIELDS) + ("phase_misses",)
        if field in recorded and recorded[field] != fresh.get(field)
    ]
    if mismatches:
        raise ValueError(
            "macro cell %s (kernel %s) result mismatch (%s)"
            % (cell_label(workload, policy, None, phase_interval,
                          prefetch_degree),
               entry.get("kernel", "auto"), "; ".join(mismatches))
        )
    return fresh
