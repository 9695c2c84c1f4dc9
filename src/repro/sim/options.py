"""One options object for every execution entry point.

``run_policy``, ``run_grid``, and ``run_suite`` take their execution
knobs from one frozen :class:`RunOptions` dataclass: build it once (the
CLIs do, via :mod:`repro.sim.common_cli`), pass it anywhere, and derive
variants with :meth:`RunOptions.replace`::

    from repro.sim import RunOptions, run_suite

    suite = run_suite(
        policies=("lru", "sbar"),
        options=RunOptions(workers=8, max_retries=3, deadline=120.0),
    )
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Optional

#: Valid ``kernel`` selections, for ``RunOptions``, ``Simulator`` and
#: every CLI's ``--kernel``: ``"auto"`` replays on the compiled native
#: kernel whenever its gates hold, ``"generic"`` pins the Python loop.
REPLAY_KERNELS = ("auto", "generic")


def slot_count(workers: int) -> int:
    """Process slots for ``workers``; ``0`` means one per CPU.

    The one check on a worker count, shared by the grid, the job
    service and every ``--workers`` flag: a negative count raises
    ``ValueError`` instead of creating no slot to run a cell on.
    """
    if workers < 0:
        raise ValueError(
            "workers must be 0 (one per CPU) or more, got %d" % workers
        )
    return workers or max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class RunOptions:
    """Everything about *how* to execute simulations (not *what*).

    The what — benchmarks, policies, scale — stays in the entry
    points' positional API; RunOptions carries the execution knobs:

    * ``workers`` — process slots.  ``0`` means serial for
      :func:`~repro.sim.suite.run_suite` and "CPU count" for the
      inherently-parallel :func:`~repro.sim.parallel.run_grid`.
    * ``use_cache`` — consult/populate the in-process memo and the
      persistent result store.
    * ``max_retries`` — re-executions allowed per task after a failure
      (``attempts = max_retries + 1``).
    * ``deadline`` — per-task wall-clock budget in seconds (SIGALRM in
      the worker).
    * ``backoff_base`` — first delay of the exponential backoff with
      deterministic jitter between retry attempts (see
      :func:`repro.sim.resilience.backoff_delay`).
    * ``resume`` — run id of an interrupted run whose journal +
      store entries should be replayed; only missing cells re-execute.
    * ``run_id`` — explicit id for this run's journal (default:
      generated).
    * ``progress`` — callback ``(TaskReport, done, total)`` per
      finished task.
    * ``chaos`` — optional :class:`repro.sim.chaos.ChaosConfig` for
      deterministic fault injection (tests/CI only).
    * ``kernel`` — replay kernel passed to every
      :class:`~repro.sim.simulator.Simulator`, one of
      :data:`REPLAY_KERNELS`.  Both paths are bit-identical, so the
      choice never enters memo or store keys — a cached result
      satisfies a request under either, and
      ``SimResult.meta["kernel_used"]`` records which one actually
      produced it.
    """

    workers: int = 0
    use_cache: bool = True
    max_retries: int = 1
    deadline: Optional[float] = None
    backoff_base: float = 0.05
    resume: Optional[str] = None
    run_id: Optional[str] = None
    progress: Optional[Callable] = None
    chaos: Optional[object] = None  # repro.sim.chaos.ChaosConfig
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if self.kernel not in REPLAY_KERNELS:
            raise ValueError(
                "kernel must be one of %s, got %r"
                % (", ".join(REPLAY_KERNELS), self.kernel)
            )

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    #: Fields that cannot cross a process boundary (callbacks) or that
    #: are owned by whichever engine executes the options (journaling
    #: identity is per-run, not part of a submission's intent).
    _NON_WIRE_FIELDS = ("progress",)

    def to_wire(self) -> dict:
        """JSON-safe dict form for service submissions and journals.

        Everything except the ``progress`` callback round-trips;
        ``chaos`` serializes through
        :meth:`repro.sim.chaos.ChaosConfig.to_dict`.  The inverse is
        :meth:`from_wire`.
        """
        payload = {}
        for field in dataclasses.fields(self):
            if field.name in self._NON_WIRE_FIELDS:
                continue
            payload[field.name] = getattr(self, field.name)
        if self.chaos is not None:
            payload["chaos"] = self.chaos.to_dict()
        return payload

    @classmethod
    def from_wire(cls, payload: Optional[dict]) -> "RunOptions":
        """Rebuild options from :meth:`to_wire` output.

        Unknown keys are ignored (a newer client may send fields an
        older server does not know, and an older client may still send
        fields this version dropped), and a ``chaos`` dict is revived
        into a :class:`~repro.sim.chaos.ChaosConfig`.
        """
        if not payload:
            return cls()
        known = {
            field.name for field in dataclasses.fields(cls)
            if field.name not in cls._NON_WIRE_FIELDS
        }
        fields = {
            key: value for key, value in payload.items() if key in known
        }
        chaos = fields.get("chaos")
        if isinstance(chaos, dict):
            from repro.sim.chaos import ChaosConfig

            fields["chaos"] = ChaosConfig(**chaos)
        return cls(**fields)


__all__ = ["RunOptions", "slot_count"]
