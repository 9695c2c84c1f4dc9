"""Shared experiment-report plumbing.

Every experiment module exposes ``run(scale=None, benchmarks=None)``
returning a :class:`Report`, which is a titled collection of text
blocks (tables, notes).  Reports render to aligned plain text so the
harness output reads like the paper's tables.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


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


def resolve_benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    """Default to the full surrogate matrix; validate explicit specs.

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
        return list(BENCHMARKS)
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


def prewarm_tasks(
    names: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
):
    """Tasks covering the default-config runs the experiments will make.

    An experiment module opts in by declaring ``PREWARM_POLICIES`` — the
    spec strings its ``run()`` feeds to ``run_policy`` with the default
    machine config.  A module that also runs prefetch cells declares
    ``PREWARM_PREFETCH_DEGREES``, the ``prefetch_degree`` values it runs
    every policy at (None for no prefetcher; default ``(None,)``).  The
    experiments CLI fans these out across a worker pool before
    rendering, so the serial report pass is all cache hits.
    Experiments that sweep custom configs (sensitivity) or phase
    intervals (figure11) simply don't declare the attribute.
    """
    from repro.experiments import EXPERIMENTS
    from repro.sim.runner import Task
    from repro.sim.runner import trace_scale
    from repro.workloads import BENCHMARKS

    resolved_scale = scale if scale is not None else trace_scale()
    tasks = []
    for name in names:
        module = EXPERIMENTS[name]
        specs = getattr(module, "PREWARM_POLICIES", ())
        if not specs:
            continue
        targets = (
            list(benchmarks)
            if benchmarks is not None
            else list(getattr(module, "DEFAULT_BENCHMARKS", BENCHMARKS))
        )
        degrees = getattr(module, "PREWARM_PREFETCH_DEGREES", (None,))
        for benchmark in targets:
            for degree in degrees:
                for spec in specs:
                    tasks.append(
                        Task(
                            benchmark=benchmark,
                            policy_spec=spec,
                            scale=resolved_scale,
                            prefetch_degree=degree,
                        )
                    )
    return tasks
