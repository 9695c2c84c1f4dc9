"""Shared experiment plumbing: cell lists, the one ``run``, reports.

An experiment module declares ``cells(scale, benchmarks)``, every
:class:`~repro.sim.runner.Task` it reads, and ``render(results, scale,
benchmarks)``, which builds its :class:`Report` from ``results``: each
declared cell's :class:`~repro.sim.stats.SimResult`.  Rendering
simulates nothing (figure1's runs over its toy loop aside), so a cell
read but not declared is a ``KeyError``.  The registry gives every module
``run = experiment(cells, render)``.  Reports are titled collections of
text blocks (tables, notes) that render to aligned plain text, so the
output reads like the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.sim.runner import Task, run_task, trace_scale


class Report:
    """A titled experiment report assembled from tables and notes."""

    def __init__(self, name: str, title: str) -> None:
        self.name = name
        self.title = title
        self._blocks: List[str] = []

    def add_note(self, text: str) -> None:
        self._blocks.append(text)

    def add_table(
        self,
        headers: Sequence[str],
        rows: Iterable[Sequence[object]],
        align_left: int = 1,
    ) -> None:
        """Append an aligned text table.

        The first ``align_left`` columns are left-aligned (labels); the
        rest are right-aligned (numbers).
        """
        string_rows = [[_cell(value) for value in row] for row in rows]
        table = [list(headers)] + string_rows
        widths = [
            max(len(row[column]) for row in table)
            for column in range(len(headers))
        ]
        lines = []
        for index, row in enumerate(table):
            parts = []
            for column, value in enumerate(row):
                if column < align_left:
                    parts.append(value.ljust(widths[column]))
                else:
                    parts.append(value.rjust(widths[column]))
            lines.append("  ".join(parts).rstrip())
            if index == 0:
                lines.append("  ".join("-" * w for w in widths))
        self._blocks.append("\n".join(lines))

    def render(self) -> str:
        rule = "=" * max(len(self.title), 8)
        body = "\n\n".join(self._blocks)
        return "%s\n%s\n%s\n\n%s\n" % (rule, self.title, rule, body)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "%.1f" % value
    if value is None:
        return "-"
    return str(value)


def fmt_pct(value: float, signed: bool = True) -> str:
    """Format a percentage the way the paper's insets do (+19%, -3.3%)."""
    magnitude = abs(value)
    digits = 1 if magnitude < 10 else 0
    body = "%.*f%%" % (digits, value)
    if signed and value > 0:
        body = "+" + body
    return body


def histogram_bar(percent: float, full_scale: float = 50.0, width: int = 25) -> str:
    """Render one histogram bucket as a text bar (Figure 2 style)."""
    filled = int(round(width * min(percent, full_scale) / full_scale))
    return "#" * filled


def resolve_benchmarks(
    benchmarks: Optional[Sequence[str]],
    default: Optional[Sequence[str]] = None,
) -> List[str]:
    """``default`` (all 14 surrogates if None), or the validated specs.

    Explicit entries may be any workload registry spec (composed or
    imported, not just surrogate names); unparseable ones raise
    ``KeyError`` listing every offender at once.
    """
    from repro.workloads import (
        BENCHMARKS,
        WorkloadSpecError,
        parse_workload_spec,
    )

    if benchmarks is None:
        return list(BENCHMARKS if default is None else default)
    unknown = []
    for name in benchmarks:
        try:
            parse_workload_spec(name)
        except (KeyError, WorkloadSpecError):
            unknown.append(name)
    if unknown:
        raise KeyError("unknown benchmarks: %s" % ", ".join(unknown))
    return list(benchmarks)


def paper_entry(table, spec: str):
    """The paper's reference entry for a workload spec, or None.

    The paper publishes numbers per benchmark, so a re-seeded surrogate
    (``mcf(seed=3)``) reports its base benchmark's entry, and specs that
    are not surrogates (compositions, imports) have none.
    """
    from repro.workloads import SurrogateWorkload, parse_workload_spec

    workload = parse_workload_spec(spec)
    if isinstance(workload, SurrogateWorkload):
        return table.get(workload.name)
    return None


def policy_cells(
    policies: Sequence[str], default: Optional[Sequence[str]] = None
):
    """The ``cells`` of an experiment that runs every benchmark
    (``default`` when none are given) under each of ``policies``."""

    def cells(scale: float, benchmarks) -> List[Task]:
        return [
            Task(name, policy, scale)
            for name in resolve_benchmarks(benchmarks, default)
            for policy in policies
        ]

    return cells


def no_cells(scale: float, benchmarks) -> List[Task]:
    """The ``cells`` of an experiment that simulates nothing."""
    return []


def experiment(cells, render):
    """The ``run(scale=None, benchmarks=None) -> Report`` of an
    experiment: resolve the scale, get each distinct cell from the
    store or a simulation (:func:`~repro.sim.runner.run_task`), render.
    """

    def run(scale: Optional[float] = None, benchmarks=None) -> Report:
        if scale is None:
            scale = trace_scale()
        results = {
            task: run_task(task)
            for task in dict.fromkeys(cells(scale, benchmarks))
        }
        return render(results, scale, benchmarks)

    return run
