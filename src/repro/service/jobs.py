"""Job and cell state, plus tenant quota / backpressure accounting.

A *job* is one grid submission (benchmarks x policies at one scale);
a *cell* is one (benchmark, policy) simulation within it.  Cells are
content-addressed by their persistent-store key, which is also the
service's dedup unit: two jobs wanting the same cell share one
execution, so state lives in two layers — per-job :class:`CellState`
(what this submitter sees) and the server's in-flight execution table
(what is actually running).

:class:`TenantQuotas` is the admission controller: a bounded global
queue (backpressure for everyone) plus a per-tenant in-flight cell
quota (one noisy tenant cannot starve the rest).  Rejections carry a
deterministic ``retry_after_s`` derived from the current queue depth —
the service-side analogue of the paper's cost-aware scheduling: admit
the cheap/parallel work, push back on the rest instead of thrashing.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.runner import Task

#: Cell lifecycle.  ``pending`` -> ``running`` -> one of the terminal
#: three; ``done`` cells carry the result digest and a ``source``
#: telling where the result came from.
CELL_PENDING = "pending"
CELL_RUNNING = "running"
CELL_DONE = "done"
CELL_FAILED = "failed"
CELL_CANCELLED = "cancelled"

_TERMINAL = (CELL_DONE, CELL_FAILED, CELL_CANCELLED)

#: ``CellState.source`` values: a fresh execution on a worker slot, a
#: persistent-store hit, an attach to another job's in-flight
#: execution, or a journal-resume replay.
SOURCE_EXECUTED = "executed"
SOURCE_STORE = "store"
SOURCE_DEDUP = "dedup"
SOURCE_RESUME = "resume"


@dataclass
class CellState:
    """One (benchmark, policy) cell as one job sees it."""

    task: Task
    #: Store key; None when the cell's spec does not parse.
    key: Optional[str] = None
    status: str = CELL_PENDING
    source: Optional[str] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 0
    wall_time: float = 0.0
    worker: Optional[str] = None

    @property
    def label(self) -> str:
        return self.task.label

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "benchmark": self.task.benchmark,
            "policy": self.task.policy_spec,
            "key": self.key,
            "status": self.status,
            "source": self.source,
            "digest": self.digest,
            "attempts": self.attempts,
            "wall_s": round(self.wall_time, 4),
            "worker": self.worker,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class Job:
    """One grid submission and the per-cell view of its progress."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        benchmarks: Sequence[str],
        policies: Sequence[str],
        scale: float,
        options_wire: Optional[Dict[str, object]] = None,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.benchmarks = list(benchmarks)
        self.policies = list(policies)
        self.scale = scale
        self.options_wire = dict(options_wire or {})
        self.cancelled = False
        self.created_at = time.time()
        #: label -> CellState, in matrix order (insertion-ordered).
        self.cells: Dict[str, CellState] = {}
        #: The :class:`repro.sim.parallel.GridRun` that admits, probes,
        #: journals and settles these cells (set by the service).
        self.run = None

    # -- state -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(cell.terminal for cell in self.cells.values())

    @property
    def status(self) -> str:
        if self.cancelled:
            return "cancelled"
        if not self.done:
            return "running"
        if any(
            cell.status == CELL_FAILED for cell in self.cells.values()
        ):
            return "failed"
        return "done"

    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in (
            CELL_PENDING, CELL_RUNNING, CELL_DONE, CELL_FAILED,
            CELL_CANCELLED,
        )}
        for cell in self.cells.values():
            counts[cell.status] += 1
        counts["total"] = len(self.cells)
        return counts

    def digest(self) -> Optional[str]:
        """Content digest over every cell's result digest.

        Defined only once the job is fully ``done`` with no failures:
        a deterministic hash of ``{label: cell digest}``, so two
        clients that submitted the same grid can compare one string to
        know they received bit-identical results.
        """
        if self.status != "done":
            return None
        payload = {
            label: cell.digest for label, cell in self.cells.items()
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe job view for ``status`` / ``result`` responses."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "benchmarks": self.benchmarks,
            "policies": self.policies,
            "scale": self.scale,
            "counts": self.counts(),
            "digest": self.digest(),
            "cells": {
                label: cell.to_dict()
                for label, cell in self.cells.items()
            },
        }


@dataclass
class Rejection:
    """An admission refusal: the error the wire carries, plus the
    429-style retry hint of a quota or queue refusal."""

    code: str            # "quota-exceeded" | "queue-full" | "bad-request"
    message: str
    retry_after_s: Optional[float] = None


class TenantQuotas:
    """Bounded admission: global queue depth + per-tenant in-flight.

    ``queue_limit`` bounds total in-flight cells service-wide (the
    submission queue); ``tenant_quota`` bounds one tenant's share.
    ``try_admit`` is check-and-reserve in one step (callers run on the
    single-threaded event loop, so no lock); every cell completion
    calls :meth:`release` once.
    """

    def __init__(self, queue_limit: int = 1024,
                 tenant_quota: int = 256) -> None:
        self.queue_limit = queue_limit
        self.tenant_quota = tenant_quota
        self.inflight_total = 0
        self.inflight: Dict[str, int] = {}
        self.rejected_queue = 0
        self.rejected_quota = 0
        self.admitted_jobs = 0

    def retry_after(self, n_cells: int) -> float:
        """Deterministic backoff hint scaled by current pressure."""
        overload = self.inflight_total + n_cells
        return round(min(30.0, 0.5 + 0.02 * overload), 3)

    def try_admit(
        self, tenant: str, n_cells: int, force: bool = False
    ) -> Optional[Rejection]:
        """Reserve ``n_cells`` for ``tenant`` or explain the refusal.

        Returns None on success (reservation taken).  ``force`` skips
        the checks but still accounts — used for server-initiated
        resume replays, which must never bounce off their own quota.
        """
        if not force:
            if (
                self.queue_limit > 0
                and self.inflight_total + n_cells > self.queue_limit
            ):
                self.rejected_queue += 1
                return Rejection(
                    code="queue-full",
                    message=(
                        "submission queue is full (%d in flight, limit "
                        "%d); retry later"
                        % (self.inflight_total, self.queue_limit)
                    ),
                    retry_after_s=self.retry_after(n_cells),
                )
            used = self.inflight.get(tenant, 0)
            if (
                self.tenant_quota > 0
                and used + n_cells > self.tenant_quota
            ):
                self.rejected_quota += 1
                return Rejection(
                    code="quota-exceeded",
                    message=(
                        "tenant %r has %d cells in flight (quota %d); "
                        "retry later" % (tenant, used, self.tenant_quota)
                    ),
                    retry_after_s=self.retry_after(n_cells),
                )
        self.inflight_total += n_cells
        self.inflight[tenant] = self.inflight.get(tenant, 0) + n_cells
        self.admitted_jobs += 1
        return None

    def release(self, tenant: str, n_cells: int = 1) -> None:
        self.inflight_total = max(0, self.inflight_total - n_cells)
        remaining = self.inflight.get(tenant, 0) - n_cells
        if remaining > 0:
            self.inflight[tenant] = remaining
        else:
            self.inflight.pop(tenant, None)

    def snapshot(self) -> Dict[str, object]:
        return {
            "queue_limit": self.queue_limit,
            "tenant_quota": self.tenant_quota,
            "inflight_total": self.inflight_total,
            "inflight_by_tenant": dict(sorted(self.inflight.items())),
            "rejected_queue": self.rejected_queue,
            "rejected_quota": self.rejected_quota,
            "admitted_jobs": self.admitted_jobs,
        }


def expand_cells(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    scale: float,
) -> List[Tuple[str, Task]]:
    """The (label, Task) matrix of one submission, duplicates dropped."""
    cells: List[Tuple[str, Task]] = []
    seen = set()
    for benchmark in benchmarks:
        for policy in policies:
            task = Task(
                benchmark=benchmark, policy_spec=policy, scale=scale
            )
            if task.label in seen:
                continue
            seen.add(task.label)
            cells.append((task.label, task))
    return cells


__all__ = [
    "CELL_PENDING",
    "CELL_RUNNING",
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_CANCELLED",
    "SOURCE_EXECUTED",
    "SOURCE_STORE",
    "SOURCE_DEDUP",
    "SOURCE_RESUME",
    "CellState",
    "Job",
    "Rejection",
    "TenantQuotas",
    "expand_cells",
]
