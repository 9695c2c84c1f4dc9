"""Fault-tolerant multiprocessing fan-out over the task grid.

Regenerating the paper is embarrassingly parallel — every cell of every
figure's matrix is an independent simulation — so this module schedules
:class:`Task` grids across a worker pool.  Execution knobs travel in one
:class:`~repro.sim.options.RunOptions` object; the engine layers the
:mod:`repro.sim.resilience` primitives on top of the pool:

* **Caching** — the parent resolves in-process memo and persistent
  store hits before spawning anything; only genuine misses reach the
  pool, and workers write their results back to the store so a repeat
  run (even in a different process) is free.
* **Retry with backoff** — a failed attempt is re-dispatched after a
  deterministic exponential-backoff delay
  (:func:`~repro.sim.resilience.backoff_delay`) until
  ``max_retries`` is exhausted; each task has a wall-clock ``deadline``
  enforced with SIGALRM inside the worker.
* **Circuit breaker** — a worker dying hard (OOM kill, ``os._exit``)
  breaks the whole ``ProcessPoolExecutor``; the engine rebuilds the
  pool and retries, but after ``pool_failure_threshold`` *consecutive*
  breakages the :class:`~repro.sim.resilience.CircuitBreaker` opens and
  the remaining tasks degrade gracefully to serial in-process
  execution instead of thrashing pool rebuilds forever.
* **Run journal** — every run appends JSONL events (task
  started/finished/failed, store keys, worker pids) to
  ``<cache dir>/runs/<run_id>.jsonl``; an interrupted run is resumable
  with ``RunOptions(resume=RUN_ID)``: journal-completed cells replay
  from the result store and only the missing cells re-execute.
* **Failure capture** — a crashing or diverging simulation becomes a
  failure entry carrying the *full remote traceback*, not just the
  exception message, plus a :class:`TaskReport` (wall time, worker
  pid, attempts) per task; :meth:`GridReport.meta` aggregates
  utilization, cache counters, and the resilience counters.
* **Chaos** — a seeded :class:`~repro.sim.chaos.ChaosConfig` injects
  crashes/delays per (task, attempt) so all of the above is exercised
  deterministically in CI.

Determinism: simulations are seeded functions of (benchmark, policy,
scale, config), so the pool returns bit-identical results to the
serial path — with or without injected faults
(``tests/test_chaos.py`` locks this in).
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.config import MachineConfig
from repro.obs import merge_snapshots
from repro.sim import runner
from repro.sim.chaos import inject
from repro.sim.options import RunOptions
from repro.sim.resilience import (
    BACKOFF_CAP_S,
    CircuitBreaker,
    RunJournal,
    backoff_delay,
    load_journal,
)
from repro.sim.stats import SimResult
from repro.sim.store import default_store, store_key

#: Fork keeps the loaded package in workers (Linux); spawn elsewhere.
_MP_START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else "spawn"
)


@dataclass(frozen=True)
class Task:
    """One cell of the simulation grid.

    ``phase_interval`` and ``prefetch_degree`` change what is simulated
    (see :func:`repro.sim.runner.run_policy`), so they are part of the
    cell and of its keys.
    """

    benchmark: str
    policy_spec: str
    scale: float
    config: Optional[MachineConfig] = None
    phase_interval: Optional[int] = None
    prefetch_degree: Optional[int] = None

    @property
    def label(self) -> str:
        label = "%s/%s" % (self.benchmark, self.policy_spec)
        if self.prefetch_degree is not None:
            label += "@prefetch=%d" % self.prefetch_degree
        return label


@dataclass
class TaskReport:
    """What happened to one task: outcome, cost, and provenance."""

    task: Task
    ok: bool
    cache_hit: bool = False
    resumed: bool = False
    wall_time: float = 0.0
    worker: Optional[int] = None
    attempts: int = 0
    error: Optional[str] = None
    traceback: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "benchmark": self.task.benchmark,
            "policy": self.task.policy_spec,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "resumed": self.resumed,
            "wall_time_s": round(self.wall_time, 4),
            "worker": self.worker,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.task.prefetch_degree is not None:
            payload["prefetch_degree"] = self.task.prefetch_degree
        if self.traceback is not None:
            payload["traceback"] = self.traceback
        return payload


@dataclass
class GridReport:
    """Results plus the partial-failure and observability report."""

    results: Dict[Task, SimResult]
    reports: List[TaskReport]
    workers: int
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0
    #: Task -> the full remote traceback of the final failed attempt
    #: (falls back to the bare exception message when the worker died
    #: before formatting one).
    failures: Dict[Task, str] = field(default_factory=dict)
    run_id: Optional[str] = None
    interrupted: bool = False
    resilience: Dict[str, object] = field(default_factory=dict)
    #: benchmark -> serialized OracleReport, set by
    #: :meth:`annotate_oracle` (None when the grid ran without oracle
    #: bounds); the matching regret fields live on each result.
    oracle: Optional[Dict[str, Dict[str, object]]] = None

    def annotate_oracle(self, reports) -> None:
        """Stamp oracle bounds and regret onto every completed result.

        ``reports`` maps benchmark spec to
        :class:`repro.analysis.oracle.OracleReport`.  Results are
        replaced with annotated copies (cached originals are never
        mutated), so a grid annotated after a parallel run is
        bit-identical to a serial run annotated the same way.
        """
        from repro.analysis.oracle import annotate_result

        for task in list(self.results):
            report = reports.get(task.benchmark)
            if report is not None:
                self.results[task] = annotate_result(
                    self.results[task], report
                )
        self.oracle = {
            benchmark: report.to_dict()
            for benchmark, report in reports.items()
        }

    @property
    def utilization(self) -> float:
        """Simulated seconds per wall second per worker (0..1-ish)."""
        if self.elapsed <= 0 or self.workers <= 0:
            return 0.0
        busy = sum(
            report.wall_time for report in self.reports
            if not report.cache_hit
        )
        return busy / (self.elapsed * self.workers)

    def merged_metrics(self) -> Optional[Dict[str, object]]:
        """Deterministic merge of every per-task metric snapshot.

        Results computed with metrics off carry no snapshot and are
        skipped; returns None when no task has one.  The merge is
        order-independent (counters sum, gauges fold by their declared
        aggregation, histograms add per-bucket), so the worker
        scheduling order cannot leak into the output — ``workers=4``
        merges bit-identically to a serial run of the same grid.
        """
        snapshots = [
            self.results[task].metrics
            for task in sorted(
                self.results, key=lambda t: (t.benchmark, t.policy_spec)
            )
            if self.results[task].metrics is not None
        ]
        if not snapshots:
            return None
        return merge_snapshots(snapshots)

    def meta(self) -> Dict[str, object]:
        """JSON-safe observability blob for ``SuiteResult.to_json()``."""
        payload: Dict[str, object] = {
            "workers": self.workers,
            "elapsed_s": round(self.elapsed, 4),
            "worker_utilization": round(self.utilization, 4),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "failed_tasks": len(self.failures),
            "tasks": [report.to_dict() for report in self.reports],
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.interrupted:
            payload["interrupted"] = True
        if self.resilience:
            payload["resilience"] = dict(self.resilience)
        return payload


class TaskTimeout(Exception):
    """A task exceeded its per-task wall-clock deadline."""


def _alarm_handler(signum, frame):
    raise TaskTimeout("task exceeded its deadline")


def execute_cell(payload) -> Tuple[str, object, float, int, Optional[str]]:
    """Worker-side entry: run one task, never raise.

    The job service (:mod:`repro.service`) schedules the same cell unit
    through this function.

    ``payload`` is ``(task, use_cache, deadline, chaos, attempt,
    in_worker, kernel)``.  Returns ``("ok", SimResult, wall, pid, None)`` or
    ``("error", message, wall, pid, traceback_text)`` — the traceback
    is formatted *here*, in the failing process, so the parent's
    failure report shows the real remote stack instead of just the
    exception message.  The deadline is enforced with SIGALRM where
    available (pool workers run tasks on their main thread);
    simulations are pure CPU loops, so the alarm lands promptly
    between bytecodes.
    """
    task, use_cache, deadline, chaos, attempt, in_worker, kernel = payload
    start = time.perf_counter()
    alarmed = False
    try:
        if deadline and hasattr(signal, "SIGALRM"):
            signal.signal(signal.SIGALRM, _alarm_handler)
            signal.alarm(max(1, int(math.ceil(deadline))))
            alarmed = True
        inject(chaos, task.label, attempt, in_worker)
        result = runner.run_policy(
            task.benchmark,
            task.policy_spec,
            scale=task.scale,
            config=task.config,
            phase_interval=task.phase_interval,
            options=RunOptions(use_cache=use_cache, kernel=kernel),
            prefetch_degree=task.prefetch_degree,
        )
        return ("ok", result, time.perf_counter() - start, os.getpid(), None)
    except Exception as exc:
        message = "%s: %s" % (type(exc).__name__, exc)
        return (
            "error",
            message,
            time.perf_counter() - start,
            os.getpid(),
            traceback.format_exc(),
        )
    finally:
        if alarmed:
            signal.alarm(0)


def task_store_key(task: Task) -> str:
    """The persistent-store key this task's result lands under.

    It is also the job service's in-flight dedup key.
    """
    from repro import workloads

    config = task.config if task.config is not None else (
        workloads.experiment_config()
    )
    return store_key(
        task.benchmark, task.policy_spec, task.scale, config,
        task.phase_interval, task.prefetch_degree,
    )


def _resolve_cached(
    task: Task, use_cache: bool
) -> Tuple[Optional[SimResult], Optional[str]]:
    """Parent-side cache probe without simulating.

    Returns ``(result, provenance)`` where provenance is ``"memo"`` or
    ``"store"`` (None on a miss).  A store entry that fails its
    integrity check is quarantined by the store and reads as a miss.
    """
    if not use_cache:
        return None, None
    key = runner._memo_key(
        task.benchmark, task.policy_spec, task.scale, task.config,
        task.phase_interval, task.prefetch_degree,
    )
    cached = runner._CACHE.get(key)
    if cached is not None:
        return cached, "memo"
    store = default_store()
    if store is None:
        return None, None
    result = store.load(task_store_key(task))
    if result is not None:
        runner._CACHE[key] = result
        return result, "store"
    return None, None


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def run_grid(
    tasks: Sequence[Task],
    options: Optional[RunOptions] = None,
) -> GridReport:
    """Run ``tasks`` across a worker pool; never raises for a bad task.

    Execution knobs come from ``options``
    (:class:`~repro.sim.options.RunOptions`).  ``options.workers == 0``
    means "CPU count" here (the grid is inherently parallel);
    ``workers == 1`` runs in-process, still producing the same report
    shape.

    A ``KeyboardInterrupt`` mid-run is graceful: the partial report is
    returned (``interrupted=True``), the journal records every
    completed cell, and a follow-up run with
    ``RunOptions(resume=run_id)`` re-executes only the missing ones.
    """
    if options is None:
        options = RunOptions()
    pool_size = options.workers or default_workers()

    ordered: List[Task] = []
    seen = set()
    for task in tasks:
        if task not in seen:
            seen.add(task)
            ordered.append(task)

    resume_keys = set()
    if options.resume is not None:
        if not options.use_cache:
            raise ValueError(
                "RunOptions(resume=...) needs the result store; it "
                "cannot be combined with use_cache=False"
            )
        resume_keys = set(load_journal(options.resume).completed)

    journal = RunJournal.create(
        run_id=options.run_id,
        meta={
            "workers": pool_size,
            "tasks": len(ordered),
            "benchmarks": sorted({t.benchmark for t in ordered}),
            "policies": sorted({t.policy_spec for t in ordered}),
            "resumed_from": options.resume,
        },
    )

    started = time.perf_counter()
    results: Dict[Task, SimResult] = {}
    reports: List[TaskReport] = []
    failures: Dict[Task, str] = {}
    pending: List[Task] = []
    resumed_cells = 0
    done = 0
    notes: Dict[str, int] = {
        "retries": 0, "pool_rebuilds": 0, "serial_fallback_tasks": 0,
    }
    breaker = CircuitBreaker(options.pool_failure_threshold)

    def finish(report: TaskReport) -> None:
        nonlocal done
        done += 1
        reports.append(report)
        if options.progress is not None:
            options.progress(report, done, len(ordered))

    def journal_key(task: Task) -> Optional[str]:
        return task_store_key(task) if journal is not None else None

    def record_success(task, result, wall, pid, attempts) -> None:
        results[task] = result
        if options.use_cache:
            runner.seed_cache(
                task.benchmark, task.policy_spec, task.scale, result,
                config=task.config, phase_interval=task.phase_interval,
                prefetch_degree=task.prefetch_degree,
            )
        if journal is not None:
            journal.task_finished(
                task, journal_key(task), cache_hit=False, resumed=False,
                wall=wall, worker=pid, attempts=attempts,
            )
        finish(TaskReport(
            task=task, ok=True, wall_time=wall, worker=pid,
            attempts=attempts,
        ))

    def record_failure(task, message, wall, pid, attempts, tb) -> None:
        failures[task] = tb if tb else message
        if journal is not None:
            journal.task_failed(task, message, tb, attempts)
        finish(TaskReport(
            task=task, ok=False, wall_time=wall, worker=pid,
            attempts=attempts, error=message, traceback=tb,
        ))

    interrupted = False
    try:
        for task in ordered:
            try:
                cached, provenance = _resolve_cached(
                    task, options.use_cache
                )
            except (KeyError, ValueError) as exc:
                # An unparseable workload spec surfaces here (keys
                # canonicalize the spec parent-side, before any worker
                # sees the task); make it a per-cell failure like an
                # unknown policy, not a matrix-wide crash.
                record_failure(
                    task, str(exc) or repr(exc), 0.0, None, 0,
                    traceback.format_exc(),
                )
                continue
            if cached is not None:
                results[task] = cached
                resumed = (
                    provenance == "store"
                    and journal_key(task) in resume_keys
                )
                resumed_cells += resumed
                if journal is not None:
                    journal.task_finished(
                        task, journal_key(task), cache_hit=True,
                        resumed=resumed, wall=0.0, worker=None, attempts=0,
                    )
                finish(TaskReport(
                    task=task, ok=True, cache_hit=True, resumed=resumed,
                ))
            else:
                pending.append(task)
        cache_hits = len(results)

        if pending and pool_size <= 1:
            _run_serial(
                deque((task, 0) for task in pending), options,
                record_success, record_failure, journal, notes,
            )
        elif pending:
            _run_pool(
                pending, pool_size, options, breaker,
                record_success, record_failure, journal, notes,
            )
    except KeyboardInterrupt:
        interrupted = True
        cache_hits = sum(1 for report in reports if report.cache_hit)
    finally:
        if journal is not None:
            journal.run_finished(
                completed=len(results), failed=len(failures),
                interrupted=interrupted,
            )

    store = default_store()
    resilience = {
        "retries": notes["retries"],
        "pool_rebuilds": notes["pool_rebuilds"],
        "circuit_open": breaker.open,
        "serial_fallback_tasks": notes["serial_fallback_tasks"],
        "store_quarantined": store.quarantined if store is not None else 0,
        "resumed_from": options.resume,
        "resumed_cells": resumed_cells,
    }
    _record_engine_metrics(resilience)

    return GridReport(
        results=results,
        reports=reports,
        workers=pool_size,
        elapsed=time.perf_counter() - started,
        cache_hits=cache_hits,
        cache_misses=len(ordered) - cache_hits,
        failures=failures,
        run_id=journal.run_id if journal is not None else options.run_id,
        interrupted=interrupted,
        resilience=resilience,
    )


def _record_engine_metrics(resilience: Dict[str, object]) -> None:
    """Fold the engine's resilience counters into the obs session.

    Only when metrics are enabled — ``--metrics-out`` surfaces them
    next to the simulation counters, so a run report shows *how hard*
    the engine had to work (retries, pool rebuilds, quarantined store
    entries) alongside what it computed.
    """
    if not obs.metrics_enabled():
        return
    registry = obs.MetricsRegistry()
    registry.counter(
        "engine_task_retries_total", "task attempts beyond the first"
    ).inc(resilience["retries"])
    registry.counter(
        "engine_pool_rebuilds_total", "broken worker pools rebuilt"
    ).inc(resilience["pool_rebuilds"])
    registry.counter(
        "engine_circuit_opens_total", "circuit-breaker serial fallbacks"
    ).inc(1 if resilience["circuit_open"] else 0)
    registry.counter(
        "engine_store_quarantined_total",
        "store entries quarantined on integrity failure",
    ).inc(resilience["store_quarantined"])
    obs.record_session(registry.snapshot())


def _run_serial(
    items: "deque",
    options: RunOptions,
    record_success,
    record_failure,
    journal: Optional[RunJournal],
    notes: Dict[str, int],
) -> None:
    """In-process execution with the same retry/backoff/journal protocol.

    Used for ``workers <= 1`` grids and as the circuit breaker's
    degraded mode.  ``items`` holds ``(task, completed_attempts)``
    pairs.  Backoff sleeps inline; chaos runs with ``in_worker=False``
    so an injected "hard" crash raises instead of killing the parent.
    """
    while items:
        task, attempts = items.popleft()
        while True:
            attempt = attempts + 1
            if journal is not None:
                journal.task_started(task, attempt)
            status, payload, wall, pid, tb = execute_cell(
                (task, options.use_cache, options.deadline, options.chaos,
                 attempt, False, options.kernel)
            )
            attempts = attempt
            if status == "ok":
                record_success(task, payload, wall, pid, attempts)
                break
            if attempts > options.max_retries:
                record_failure(task, payload, wall, pid, attempts, tb)
                break
            notes["retries"] += 1
            delay = backoff_delay(
                options.backoff_base, BACKOFF_CAP_S, attempts, task.label,
            )
            if delay > 0:
                time.sleep(delay)


def _run_pool(
    pending: Sequence[Task],
    workers: int,
    options: RunOptions,
    breaker: CircuitBreaker,
    record_success,
    record_failure,
    journal: Optional[RunJournal],
    notes: Dict[str, int],
) -> None:
    """Dispatch misses to a process pool with retry, backoff, and rebuild.

    The pool is rebuilt when a worker dies hard (which breaks every
    in-flight future); retries wait out their backoff in a delay heap
    so the parent keeps collecting other results meanwhile.  When the
    circuit breaker opens, everything still outstanding drains through
    :func:`_run_serial`.
    """
    context = multiprocessing.get_context(_MP_START_METHOD)
    pool_size = min(workers, len(pending))
    ready: "deque" = deque((task, 0) for task in pending)
    delayed: List[Tuple[float, int, Task, int]] = []
    sequence = 0
    pool: Optional[ProcessPoolExecutor] = None
    inflight: Dict[object, Tuple[Task, int]] = {}

    def close_pool() -> None:
        nonlocal pool
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

    def requeue(task: Task, attempts: int) -> None:
        nonlocal sequence
        notes["retries"] += 1
        delay = backoff_delay(
            options.backoff_base, BACKOFF_CAP_S, attempts, task.label,
        )
        if delay > 0:
            heapq.heappush(
                delayed,
                (time.monotonic() + delay, sequence, task, attempts),
            )
            sequence += 1
        else:
            ready.append((task, attempts))

    def handle_outcome(task, attempts, status, payload, wall, pid, tb):
        if status == "ok":
            record_success(task, payload, wall, pid, attempts)
        elif attempts <= options.max_retries:
            requeue(task, attempts)
        else:
            record_failure(task, payload, wall, pid, attempts, tb)

    def on_pool_failure() -> None:
        """A worker died hard: count it, rebuild, drain the wreckage."""
        breaker.record_pool_failure()
        notes["pool_rebuilds"] += 1
        # Every in-flight future of a broken pool resolves (almost)
        # immediately — either with a result computed before the
        # breakage or with BrokenProcessPool.  Drain them all so their
        # tasks get retried against the fresh pool.
        deadline = time.monotonic() + 10.0
        while inflight and time.monotonic() < deadline:
            settled, _ = wait(set(inflight), timeout=1.0)
            for future in settled:
                task, attempts = inflight.pop(future)
                try:
                    status, payload, wall, pid, tb = future.result()
                except Exception as exc:
                    status = "error"
                    payload = "%s: %s" % (type(exc).__name__, exc)
                    wall, pid, tb = 0.0, None, None
                handle_outcome(
                    task, attempts + 1, status, payload, wall, pid, tb
                )
        for future, (task, attempts) in list(inflight.items()):
            inflight.pop(future)
            handle_outcome(
                task, attempts + 1, "error",
                "BrokenPool: worker lost before reporting",
                0.0, None, None,
            )
        close_pool()

    try:
        while ready or delayed or inflight:
            if breaker.open:
                break
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, task, attempts = heapq.heappop(delayed)
                ready.append((task, attempts))

            submit_failed = False
            while ready:
                task, attempts = ready.popleft()
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=pool_size, mp_context=context
                    )
                if journal is not None:
                    journal.task_started(task, attempts + 1)
                try:
                    future = pool.submit(
                        execute_cell,
                        (task, options.use_cache, options.deadline,
                         options.chaos, attempts + 1, True, options.kernel),
                    )
                except Exception:
                    # The pool broke between completions; retry the
                    # submission against a fresh pool next round.
                    ready.appendleft((task, attempts))
                    submit_failed = True
                    break
                inflight[future] = (task, attempts)
            if submit_failed:
                on_pool_failure()
                continue

            if not inflight:
                if delayed:
                    pause = delayed[0][0] - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                continue

            wake = None
            if delayed:
                wake = max(0.0, delayed[0][0] - time.monotonic())
            finished, _ = wait(
                set(inflight), timeout=wake, return_when=FIRST_COMPLETED
            )
            pool_failed = False
            for future in finished:
                task, attempts = inflight.pop(future)
                try:
                    status, payload, wall, pid, tb = future.result()
                except Exception as exc:
                    pool_failed = True
                    status = "error"
                    payload = "%s: %s" % (type(exc).__name__, exc)
                    wall, pid, tb = 0.0, None, None
                else:
                    breaker.record_healthy_round()
                handle_outcome(
                    task, attempts + 1, status, payload, wall, pid, tb
                )
            if pool_failed:
                on_pool_failure()
    finally:
        close_pool()

    if breaker.open and (ready or delayed):
        leftovers: "deque" = deque()
        for task, attempts in ready:
            leftovers.append((task, attempts))
        for _, _, task, attempts in sorted(delayed):
            leftovers.append((task, attempts))
        notes["serial_fallback_tasks"] += len(leftovers)
        _run_serial(
            leftovers, options, record_success, record_failure, journal,
            notes,
        )


__all__ = [
    "Task",
    "TaskReport",
    "GridReport",
    "run_grid",
    "default_workers",
    "execute_cell",
    "task_store_key",
]
