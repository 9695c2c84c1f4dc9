"""The asyncio job service: many tenants, one simulation engine.

``python -m repro serve`` runs a long-lived :class:`JobService` that
accepts grid submissions (workload-spec x policy-spec matrices) over
the newline-delimited JSON protocol (:mod:`repro.service.protocol`)
and expands them to cells.  Each job owns one
:class:`repro.sim.parallel.GridRun`, the cell lifecycle ``run_grid``
uses too: store keys, spec failures, the store probe, the job's
journal and settlement.  Every job's run shares one
:class:`repro.sim.parallel.CellScheduler`: process slots, retry with
backoff, deadlines, slot rebuilds.  This module
adds what a shared daemon needs on top:

* **Dedup by store key** — a cell is content-addressed by the same
  persistent-store key the engine uses
  (:func:`repro.sim.store.store_key`), so two tenants
  submitting overlapping grids share one execution per overlapping
  cell: the second submission attaches to the in-flight execution (or
  hits the store if it already finished).  Shared work runs exactly
  once; everyone gets bit-identical digests.
* **Quotas and backpressure** — :class:`repro.service.jobs.TenantQuotas`
  bounds the global in-flight queue and each tenant's share; refused
  submissions get a 429-style response with ``retry_after_s``.
* **Journal-backed recovery** — every job appends to a run journal
  (``job-<id>.jsonl`` next to the result store); ``serve --resume``
  replays incomplete jobs at startup, serving journal-completed cells
  from the store and re-executing only the missing ones.
* **Progress streaming** — ``watch`` clients receive one event line
  per cell transition, ending with ``job_done``.

Results themselves live in the digest-prefix-sharded result store —
the service hands out digests and (on request) re-serves payloads from
the store, so restarting the service never loses a result.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service import protocol
from repro.service.jobs import (
    CELL_CANCELLED,
    CELL_DONE,
    CELL_FAILED,
    CELL_PENDING,
    CELL_RUNNING,
    SOURCE_DEDUP,
    SOURCE_EXECUTED,
    SOURCE_RESUME,
    CellState,
    Job,
    Rejection,
    TenantQuotas,
    expand_cells,
)
from repro.sim.options import RunOptions, check_workers
from repro.sim.parallel import CellScheduler, GridRun, Outcome
from repro.sim.resilience import list_runs, new_run_id
from repro.sim.runner import Task, trace_scale
from repro.sim.store import default_store, result_digest

# What a cell runs beyond the imports above, loaded before the service
# listens: slots fork from this process on first use and inherit it.
import repro.sim.native  # noqa: F401
import repro.workloads  # noqa: F401

#: Client-suppliable RunOptions fields.  Everything else (cache policy,
#: journaling, pool shape) is the server's call; these three only
#: change how hard one submission tries, and none of them can change
#: result bits (chaos is for tests).  Other keys, such as the
#: ``kernel`` an older client may still send, are ignored.
CLIENT_OPTION_FIELDS = ("max_retries", "deadline", "chaos")


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` can configure."""

    host: str = "127.0.0.1"
    port: int = protocol.DEFAULT_PORT
    #: Worker slots (one process each), 1 or more: the service cannot
    #: simulate on its event loop.
    workers: int = 2
    #: Global in-flight cell bound (backpressure); 0 disables.
    queue_limit: int = 1024
    #: Per-tenant in-flight cell quota; 0 disables.
    tenant_quota: int = 256
    #: Execution knobs applied to every cell (clients may override the
    #: CLIENT_OPTION_FIELDS subset per submission).
    options: RunOptions = field(default_factory=RunOptions)
    #: Replay incomplete job journals at startup.
    resume: bool = False
    #: Honor the ``shutdown`` op (leave on for tests/demos; a shared
    #: deployment would turn it off).
    allow_shutdown: bool = True

    def __post_init__(self) -> None:
        check_workers(self.workers, least=1)


class _RunningLoop:
    """The scheduler's event loop: the asyncio loop running the service.

    Resolved per call, so a service can be built before its loop runs.
    """

    def __getattr__(self, name: str):
        return getattr(asyncio.get_running_loop(), name)


def _job_done_event(job: Job) -> Dict[str, object]:
    """The last event of every ``watch`` stream."""
    return protocol.event(
        "job_done", job_id=job.job_id, status=job.status,
        digest=job.digest(), counts=job.counts(),
    )


class JobService:
    """The server.  Create, ``await start()``, then ``serve_forever``.

    All state mutation happens on the event loop (connection handlers
    and the scheduler's cells are coroutines), so submission
    admission, dedup, and quota accounting are race-free by
    construction.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.jobs: Dict[str, Job] = {}
        self.quotas = TenantQuotas(
            queue_limit=self.config.queue_limit,
            tenant_quota=self.config.tenant_quota,
        )
        self.scheduler = CellScheduler(self.config.workers, _RunningLoop())
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "submissions": 0,
            "submissions_rejected": 0,
            "jobs_completed": 0,
            "jobs_cancelled": 0,
            "jobs_resumed": 0,
            "cells_total": 0,
            "cells_store_hits": 0,
            "cells_deduped": 0,
            "cells_resumed": 0,
            #: Plus the scheduler's failed executions.
            "cell_failures": 0,
        }

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        if self.config.resume:
            self._resume_jobs()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drop executions, close.

        Idempotent — the ``shutdown`` op and an explicit ``stop()``
        (tests do both) must not double-close.
        """
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        self._stopping = True
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        self.scheduler.close()
        for watchers in self._watchers.values():
            for queue in watchers:
                queue.put_nowait(None)
        for job in self.jobs.values():
            job.run.close()

    # -- submission ------------------------------------------------------

    def _merge_options(
        self, wire: Optional[Dict[str, object]]
    ) -> RunOptions:
        """Server options with the client's whitelisted overrides.

        Raises ``ValueError`` or ``TypeError`` when an override is not
        a valid :class:`RunOptions` value.
        """
        base = self.config.options
        if not wire:
            return base
        allowed = {
            key: value for key, value in wire.items()
            if key in CLIENT_OPTION_FIELDS
        }
        if not allowed:
            return base
        merged = base.to_wire()
        merged.update(allowed)
        return RunOptions.from_wire(merged)

    def submit_job(
        self,
        tenant: str,
        benchmarks,
        policies,
        scale: Optional[float] = None,
        options_wire: Optional[Dict[str, object]] = None,
        job_id: Optional[str] = None,
        force: bool = False,
        resume_keys=frozenset(),
    ):
        """Admit one submission; returns ``(job, None)`` or
        ``(None, Rejection)``.

        Quota admission, matrix expansion, store probe, in-flight
        dedup, and hand-off to the scheduler, in one method.  Runs
        synchronously on the event loop so concurrent submitters
        interleave at message granularity, never mid-admission.  A
        cell whose spec does not parse fails alone, like a grid cell;
        options that do not make a :class:`RunOptions` refuse the whole
        submission as a ``bad-request``, before anything is admitted.
        """
        try:
            options = self._merge_options(options_wire)
        except (TypeError, ValueError) as exc:
            self.counters["submissions_rejected"] += 1
            return None, Rejection("bad-request", "invalid options: %s" % exc)
        resolved_scale = scale if scale is not None else trace_scale()
        cells = expand_cells(benchmarks, policies, resolved_scale)
        rejection = self.quotas.try_admit(tenant, len(cells), force=force)
        if rejection is not None:
            self.counters["submissions_rejected"] += 1
            return None, rejection
        self.counters["submissions"] += 1
        self.counters["cells_total"] += len(cells)

        job = Job(
            job_id=job_id or new_run_id("job"),
            tenant=tenant,
            benchmarks=list(benchmarks),
            policies=list(policies),
            scale=resolved_scale,
            options_wire=dict(options_wire or {}),
        )
        self.jobs[job.job_id] = job
        job.run = GridRun(
            self.scheduler, options, run_id=job.job_id,
            resume_keys=resume_keys, memo=False,
            on_started=functools.partial(self._cell_started, job),
            on_settled=functools.partial(self._cell_settled, job),
            meta={
                "service_job": True,
                "tenant": tenant,
                "benchmarks": list(benchmarks),
                "policies": list(policies),
                "scale": resolved_scale,
                "options": dict(options_wire or {}),
            },
        )
        for label, task in cells:
            job.cells[label] = CellState(task=task)
        scheduled = job.run.admit([task for _, task in cells])
        for cell in job.cells.values():
            cell.key = job.run.keys.get(cell.task)
            execution = scheduled.get(cell.task)
            if execution is not None and (
                execution.subscribers[0] != (job.run, cell.task)
            ):
                # Another cell, of this job or another, is running it.
                self.counters["cells_deduped"] += 1
                cell.source = SOURCE_DEDUP
                cell.status = (
                    CELL_RUNNING if execution.attempts else CELL_PENDING
                )
        if not cells:  # resumed from a journal with a torn header
            self._finish_job_if_done(job)
        return job, None

    # -- cell/job state transitions --------------------------------------

    def _cell_started(
        self, job: Job, task: Task, worker: str, attempt: int
    ) -> None:
        cell = job.cells[task.label]
        cell.status = CELL_RUNNING
        cell.worker = worker
        cell.attempts = attempt
        self._emit(job, protocol.event(
            "cell_running", job_id=job.job_id, cell=cell.label,
            worker=worker, attempt=attempt,
        ))

    def _cell_settled(
        self, job: Job, task: Task, outcome: Outcome, source: Optional[str]
    ) -> None:
        cell = job.cells[task.label]
        cell.attempts = outcome.attempts
        if outcome.ok:
            cell.status = CELL_DONE
            cell.source = source or cell.source or SOURCE_EXECUTED
            cell.digest = result_digest(outcome.value.to_dict())
            cell.wall_time = outcome.wall
            cell.worker = outcome.slot
            if source is not None:
                self.counters[
                    "cells_resumed" if source == SOURCE_RESUME
                    else "cells_store_hits"
                ] += 1
            event = protocol.event(
                "cell_finished", job_id=job.job_id, cell=cell.label,
                digest=cell.digest, source=cell.source,
                wall_s=round(outcome.wall, 4), worker=outcome.slot,
            )
        else:
            cell.status = CELL_FAILED
            cell.error = outcome.value
            cell.traceback = outcome.traceback
            if not outcome.attempts:  # a spec that did not parse
                self.counters["cell_failures"] += 1
            event = protocol.event(
                "cell_failed", job_id=job.job_id, cell=cell.label,
                error=outcome.value, attempts=outcome.attempts,
            )
        self.quotas.release(job.tenant)
        self._emit(job, event)
        self._finish_job_if_done(job)

    def _finish_job_if_done(self, job: Job) -> None:
        if not job.done:
            return
        job.run.finish(interrupted=job.cancelled)
        if job.cancelled:
            self.counters["jobs_cancelled"] += 1
        else:
            self.counters["jobs_completed"] += 1
        self._emit(job, _job_done_event(job))

    def cancel_job(self, job: Job) -> None:
        """Cancel every non-terminal cell this job alone is waiting on.

        Cells shared with other jobs keep running (their other
        subscribers still want them); this job just stops listening.
        """
        job.cancelled = True
        for label, cell in job.cells.items():
            if cell.terminal:
                continue
            execution = self.scheduler.executions.get(cell.key)
            if execution is not None:
                execution.subscribers = [
                    (run, task) for run, task in execution.subscribers
                    if run is not job.run
                ]
                if not execution.subscribers:
                    self.scheduler.cancel(execution)
            cell.status = CELL_CANCELLED
            self.quotas.release(job.tenant)
            self._emit(job, protocol.event(
                "cell_cancelled", job_id=job.job_id, cell=label,
            ))
        self._finish_job_if_done(job)

    # -- resume ----------------------------------------------------------

    def _resume_jobs(self) -> None:
        """Replay incomplete job journals found next to the store."""
        for state in list_runs("job"):
            if state.finished or not state.meta.get("service_job"):
                continue
            if state.run_id in self.jobs:
                continue
            meta = state.meta
            options_wire = meta.get("options")
            try:
                self._merge_options(options_wire)
            except (TypeError, ValueError):
                # An older version admitted options this one refuses;
                # the job it admitted finishes on the server's own.
                options_wire = None
            job, rejection = self.submit_job(
                tenant=meta.get("tenant", "anonymous"),
                benchmarks=meta.get("benchmarks") or [],
                policies=meta.get("policies") or [],
                scale=meta.get("scale"),
                options_wire=options_wire,
                job_id=state.run_id,
                force=True,
                resume_keys=set(state.completed),
            )
            if job is not None:
                self.counters["jobs_resumed"] += 1

    # -- events / watchers ----------------------------------------------

    def _emit(self, job: Job, payload: Dict[str, object]) -> None:
        for queue in self._watchers.get(job.job_id, ()):  # noqa: B020
            queue.put_nowait(payload)

    # -- connection handling ---------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        message: Dict[str, object] = {}
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                message = protocol.decode(line)
                response, stream = self._dispatch(message)
            except protocol.ProtocolError as exc:
                response, stream = (
                    protocol.error_response(exc.code, str(exc)), None
                )
            writer.write(protocol.encode(response))
            if stream is None:
                await writer.drain()
            else:
                await self._stream_events(*stream, writer)
            if message.get("op") == "shutdown" and response.get("ok"):
                asyncio.get_running_loop().create_task(self.stop())
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _dispatch(
        self, message: Dict[str, object]
    ) -> Tuple[Dict[str, object], Optional[Tuple[Job, asyncio.Queue]]]:
        """Route one request; returns (response, (job, event queue)).

        The event queue is set for ``watch`` only.
        """
        op = message.get("op")
        if self._stopping:
            return protocol.error_response(
                "shutting-down", "service is shutting down"
            ), None
        if op == "ping":
            return protocol.ok_response(
                schema=protocol.PROTOCOL_SCHEMA,
                uptime_s=round(time.time() - self.started_at, 3),
            ), None
        if op == "stats":
            return protocol.ok_response(stats=self.stats()), None
        if op == "submit":
            fields = protocol.validate_submit(message)
            job, rejection = self.submit_job(
                tenant=fields["tenant"],
                benchmarks=fields["benchmarks"],
                policies=fields["policies"],
                scale=fields["scale"],
                options_wire=fields["options"],
                job_id=fields["job_id"],
            )
            if rejection is not None:
                return protocol.error_response(
                    rejection.code, rejection.message,
                    retry_after_s=rejection.retry_after_s,
                ), None
            counts = job.counts()
            return protocol.ok_response(
                job_id=job.job_id,
                cells=counts["total"],
                already_done=counts[CELL_DONE],
            ), None
        if op == "shutdown":
            if not self.config.allow_shutdown:
                return protocol.error_response(
                    "bad-request", "shutdown is disabled"
                ), None
            return protocol.ok_response(stopping=True), None
        if op in ("status", "watch", "result", "cancel"):
            job_id = message.get("job_id")
            job = self.jobs.get(job_id) if isinstance(job_id, str) else None
            if job is None:
                return protocol.error_response(
                    "unknown-job", "no such job: %r" % (job_id,)
                ), None
            if op == "status":
                return protocol.ok_response(job=job.snapshot()), None
            if op == "watch":
                # Subscribe in the same synchronous step that takes the
                # snapshot, so every transition lands in exactly one of
                # the two.  A finished job emits nothing more: its
                # stream is the job_done event alone.
                queue: asyncio.Queue = asyncio.Queue()
                if job.done:
                    queue.put_nowait(_job_done_event(job))
                else:
                    self._watchers.setdefault(job.job_id, []).append(queue)
                return protocol.ok_response(job=job.snapshot()), (job, queue)
            if op == "cancel":
                self.cancel_job(job)
                return protocol.ok_response(job=job.snapshot()), None
            # result
            payload = protocol.ok_response(job=job.snapshot())
            if message.get("include_results"):
                payload["results"] = self._load_results(job)
            return payload, None
        return protocol.error_response(
            "unknown-op", "unknown op: %r" % (op,)
        ), None

    def _load_results(self, job: Job) -> Dict[str, object]:
        """Re-serve completed cells' full payloads from the store."""
        store = default_store()
        results: Dict[str, object] = {}
        if store is None:
            return results
        for label, cell in job.cells.items():
            if cell.status != CELL_DONE:
                continue
            payload = store.load_payload(cell.key)
            if payload is not None:
                results[label] = payload
        return results

    async def _stream_events(
        self, job: Job, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Send the buffered snapshot, then ``queue``'s events.

        Streams until ``job_done`` (or disconnect), and unsubscribes the
        queue whichever way the stream ends.
        """
        try:
            await writer.drain()
            while True:
                payload = await queue.get()
                if payload is None:  # service shutdown
                    return
                writer.write(protocol.encode(payload))
                await writer.drain()
                if payload.get("event") == "job_done":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            watchers = self._watchers.get(job.job_id)
            if watchers is not None:
                try:
                    watchers.remove(queue)
                except ValueError:
                    pass
                if not watchers:
                    self._watchers.pop(job.job_id, None)

    # -- introspection ----------------------------------------------------

    def _all_counters(self) -> Dict[str, int]:
        """Service counters plus the scheduler's execution and
        resilience counters."""
        counters = dict(self.counters)
        counters["cells_executed"] = self.scheduler.succeeded
        counters["cell_failures"] += self.scheduler.failed
        counters.update(self.scheduler.counters())
        return counters

    def stats(self) -> Dict[str, object]:
        """JSON-safe service report (the ``stats`` op's payload)."""
        jobs_by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            jobs_by_status[job.status] = (
                jobs_by_status.get(job.status, 0) + 1
            )
        return {
            "schema": protocol.PROTOCOL_SCHEMA,
            "uptime_s": round(time.time() - self.started_at, 3),
            "counters": self._all_counters(),
            "quotas": self.quotas.snapshot(),
            "slots": {
                slot.name: {"busy": slot.busy}
                for slot in self.scheduler.slots
            },
            "jobs": {
                "total": len(self.jobs),
                "by_status": jobs_by_status,
                "in_flight_executions": len(self.scheduler.executions),
            },
        }


class ServiceHandle:
    """A service running on a daemon thread (tests, demos, CLIs)."""

    def __init__(self, service: JobService, loop, thread) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self._call(lambda: self.service.port)

    def _call(self, fn):
        result: Dict[str, object] = {}
        done = threading.Event()

        def runner():
            result["value"] = fn()
            done.set()

        self.loop.call_soon_threadsafe(runner)
        done.wait(10)
        return result.get("value")

    def stop(self, timeout: float = 30.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop
        )
        try:
            future.result(timeout)
        except Exception:
            pass
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout)


def serve_in_thread(
    config: Optional[ServiceConfig] = None,
) -> ServiceHandle:
    """Start a :class:`JobService` on a background thread.

    Returns once the server socket is bound; ``handle.port`` gives the
    real port (bind with ``port=0`` for an ephemeral one).
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    def runner():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = JobService(config)
        loop.run_until_complete(service.start())
        holder["service"] = service
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-service", daemon=True
    )
    thread.start()
    if not started.wait(30):
        raise RuntimeError("job service failed to start within 30s")
    return ServiceHandle(holder["service"], holder["loop"], thread)


__all__ = [
    "CLIENT_OPTION_FIELDS",
    "JobService",
    "ServiceConfig",
    "ServiceHandle",
    "serve_in_thread",
]
