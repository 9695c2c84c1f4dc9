"""One options object for every execution entry point.

``run_policy``, ``run_grid``, and ``run_suite`` take their execution
knobs from one frozen :class:`RunOptions` dataclass: build it once (the
CLIs do, via :mod:`repro.sim.common_cli`), pass it anywhere, and derive
variants with :meth:`RunOptions.replace`::

    from repro.sim import RunOptions
    from repro.sim.suite import run_suite

    suite = run_suite(
        policies=("lru", "sbar"),
        options=RunOptions(workers=8, max_retries=3, deadline=120.0),
    )
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional


def check_workers(workers: int, least: int = 0) -> int:
    """``workers``, or ``ValueError`` when it is below ``least``.

    The one check on a worker count, shared by the grid, the job
    service and every ``--workers`` flag.  ``0`` runs cells in this
    process and ``N`` on N process slots; the job service passes
    ``least=1``, since it cannot simulate on its event loop.
    """
    if workers < least:
        raise ValueError(
            "workers must be %d or more, got %d" % (least, workers)
        )
    return workers


def check_scale(scale) -> float:
    """``scale`` as a float, or ``ValueError`` unless it is a positive,
    finite number.

    The one check on a trace scale, shared by every ``--scale`` flag,
    ``REPRO_SCALE`` (:func:`repro.sim.runner.trace_scale`) and the job
    service's ``submit``.  A surrogate trace is clamped to at least one
    access, so without it a zero, negative or NaN scale would run.
    """
    try:
        value = float(scale)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(scale, bool) or not (math.isfinite(value) and value > 0):
        raise ValueError(
            "scale must be a positive, finite number, got %r" % (scale,)
        )
    return value


@dataclass(frozen=True)
class RunOptions:
    """Everything about *how* to execute simulations (not *what*).

    The what — benchmarks, policies, scale — stays in the entry
    points' positional API; RunOptions carries the execution knobs:

    * ``workers`` — process slots for
      :func:`~repro.sim.parallel.run_grid`.  ``0`` (the default) runs
      each cell in this process.
    * ``use_cache`` — consult/populate the persistent result store.
    * ``max_retries`` — re-executions allowed per task after a failure
      (``attempts = max_retries + 1``).
    * ``deadline`` — per-task wall-clock budget in seconds (SIGALRM in
      the worker).
    * ``progress`` — callback ``(TaskReport, done, total)`` per
      finished task.
    * ``chaos`` — optional :class:`repro.sim.chaos.ChaosConfig` for
      deterministic fault injection (tests/CI only).
    """

    workers: int = 0
    use_cache: bool = True
    max_retries: int = 1
    deadline: Optional[float] = None
    progress: Optional[Callable] = None
    chaos: Optional[object] = None  # repro.sim.chaos.ChaosConfig

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_retries, int)
            or isinstance(self.max_retries, bool)
            or self.max_retries < 0
        ):
            raise ValueError(
                "max_retries must be an int of 0 or more, got %r"
                % (self.max_retries,)
            )
        if self.deadline is not None and (
            not isinstance(self.deadline, (int, float))
            or isinstance(self.deadline, bool)
            or not 0 < self.deadline < math.inf
        ):
            raise ValueError(
                "deadline must be None or a finite positive number of "
                "seconds, got %r" % (self.deadline,)
            )

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)


__all__ = ["RunOptions", "check_workers"]
