"""Benchmark report schema, machine fingerprint, and validation.

A report is a plain JSON-safe dict:

.. code-block:: text

    {
      "schema": "repro.bench/v6",
      "tag": "local",
      "created_unix": 1754400000.0,
      "machine": {"platform": ..., "python": ..., "cpus": ...},
      "code_version": "<hash of the repro sources, .c files included>",
      "macro": [{"workload", "policy", "accesses", "scale", "seconds",
                 "accesses_per_sec", "kernel", "kernel_used",
                 "kernel_fallback", ["phase_interval"],
                 ["prefetch_degree"],
                 "result": {"l2_misses", "cycles", "demand_misses",
                 "stall_cycles", ["phase_misses"]}}, ...]
    }

Each macro cell records the replay kernel it was *requested* under
(``kernel``: ``auto`` or ``generic``), the path that actually ran
(``kernel_used``: a host without the compiled extension runs ``auto``
cells on the generic loop) and, for the generic loop, the native gate
that failed (``kernel_fallback``, else null), so a silent downgrade on
a future host shows up as data rather than as a timing regression.  A
phase-sampled cell carries ``phase_interval`` (a positive int) and
embeds ``phase_misses``, one miss count per phase, in its result; a
prefetch cell carries ``prefetch_degree`` (a positive int): it ran
with a default stride prefetcher of that degree.  A cell without
either field ran unsampled and without a prefetcher.

v6 is v5 without the ``micro`` section (timings of Python kernels the
native path never touches) and without the macro cells' ``fused``
flag, which duplicated ``kernel_used == "native"``.
``validate_report`` still reads v5, so the committed v5 baselines stay
checkable; their ``micro`` section is ignored.  Cells recorded under
the retired ``native``/``batched``/``fused`` kernel names re-simulate
on ``auto``.

``validate_report`` is the single source of truth for that shape; the
CI perf-smoke job and the bench CLI both call it, so a report that
lands in the repo is guaranteed parseable by future tooling.
:func:`entry_task` reads a cell back as the
:class:`~repro.sim.runner.Task` it ran.  ``check_macro_cell``
re-simulates one cell and compares the embedded
machine-independent result fields — the digest check CI runs against
the committed baseline (results must match across hosts; timings are
never compared).
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import fields
from typing import Dict, List, Optional

from repro.sim.runner import Task, cell_label
from repro.sim.store import code_version

#: Current report schema identifier; bump the suffix on breaking shape
#: changes so old reports stay recognizable.
SCHEMA = "repro.bench/v6"

#: The older schema ``validate_report`` still accepts (the committed
#: v5 baseline reports must stay checkable).
_SCHEMA_V5 = "repro.bench/v5"

#: Kernel names older reports recorded that no longer exist; their
#: cells re-simulate on ``auto``.
RETIRED_KERNELS = ("native", "batched", "fused")

_MACRO_FIELDS = {"workload": str, "policy": str, "accesses": int,
                 "scale": float, "seconds": float,
                 "accesses_per_sec": float, "kernel": str,
                 "kernel_used": str, "result": dict}
#: v5 macro cells also carry the ``fused`` flag.
_MACRO_FIELDS_V5 = dict(_MACRO_FIELDS, fused=bool)
_RESULT_FIELDS = {"l2_misses": int, "cycles": float, "demand_misses": int,
                  "stall_cycles": float}


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


def build_report(
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

    Accepts the current v6 schema and v5 (whose macro cells also carry
    ``fused``; its ``micro`` section is ignored), so the committed v5
    baseline reports stay valid.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be an object, got %r" % (report,))
    schema = report.get("schema")
    if schema not in (SCHEMA, _SCHEMA_V5):
        raise ValueError(
            "unknown schema %r (expected %r or %r)"
            % (schema, SCHEMA, _SCHEMA_V5)
        )
    macro_fields = _MACRO_FIELDS if schema == SCHEMA else _MACRO_FIELDS_V5
    for field, expected in (
        ("tag", str), ("created_unix", float), ("machine", dict),
        ("code_version", str), ("macro", list),
    ):
        _check_fields(report, {field: expected}, "report")
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
        _check_fields(entry["result"], _RESULT_FIELDS, where + ".result")


def entry_task(entry: Dict[str, object]) -> Task:
    """The :class:`Task` a macro entry recorded, with its set fields."""
    optional = {
        spec.name: entry[spec.name]
        for spec in fields(Task)
        if spec.default is None and spec.name in entry
    }
    return Task(entry["workload"], entry["policy"], entry["scale"], **optional)


def find_macro_cell(
    report: Dict[str, object],
    task: Task,
    kernel: Optional[str] = None,
) -> Dict[str, object]:
    """Return the macro entry that recorded ``task``, or raise.

    ``kernel`` narrows the match in a report that times the same cell
    under several kernels; ``None`` returns the first match.
    """
    for entry in report["macro"]:
        if entry_task(entry) == task and (
            kernel is None or entry.get("kernel") == kernel
        ):
            return entry
    raise ValueError("report has no macro cell %s" % cell_label(task, kernel))


def check_macro_cell(
    report: Dict[str, object],
    task: Task,
    kernel: Optional[str] = None,
) -> Dict[str, object]:
    """Re-simulate one macro cell and compare its embedded results.

    The comparison covers only the machine-independent ``result``
    fields — never timings — so it must pass on any host for a report
    produced by the same code.  The re-simulation requests the cell's
    recorded kernel, or ``auto`` for retired kernel names: results
    never depend on the kernel, so the digests must agree regardless.
    Returns the freshly simulated result payload on success; raises
    ``ValueError`` with a field-by-field diff on mismatch.
    """
    from repro.bench.macro import macro_result_fields, simulate_cell

    entry = find_macro_cell(report, task, kernel)
    recorded_kernel = entry["kernel"]
    if recorded_kernel in RETIRED_KERNELS:
        recorded_kernel = "auto"
    fresh = macro_result_fields(simulate_cell(task, recorded_kernel))
    recorded = entry["result"]
    # phase_misses is recorded only by phase-sampled cells.
    mismatches = [
        "%s: recorded %r, simulated %r"
        % (field, recorded[field], fresh.get(field))
        for field in tuple(_RESULT_FIELDS) + ("phase_misses",)
        if field in recorded and recorded[field] != fresh.get(field)
    ]
    if mismatches:
        raise ValueError(
            "macro cell %s (kernel %s) result mismatch (%s)"
            % (cell_label(task), entry["kernel"], "; ".join(mismatches))
        )
    return fresh
