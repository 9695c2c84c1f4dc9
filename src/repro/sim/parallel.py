"""The one cell scheduler, and the task grid that runs on it.

Regenerating the paper is embarrassingly parallel — every cell of every
figure's matrix is an independent simulation.  :class:`CellScheduler`
runs cells for both :func:`run_grid` and the job service
(:mod:`repro.service.server`); execution knobs travel in one
:class:`~repro.sim.options.RunOptions` object:

* **Slots** — N worker processes, one cell at a time each, driven by
  callbacks on one event loop: the service's asyncio loop, or a small
  selector loop inside :func:`run_grid`.  Waiting cells take free
  slots first come, first served; a freed slot goes to the next
  waiting cell, onto the best free slot as ranked by
  :class:`~repro.sim.resilience.WorkerHealth` (recency + observed
  health, with a per-slot circuit that trips after consecutive
  failures).
* **Dedup** — cells are keyed by their store key
  (:func:`~repro.sim.store.store_key`); a cell whose key is already in
  flight attaches to that execution instead of running twice.
* **Retry with backoff** — a failed attempt is re-dispatched after a
  deterministic exponential-backoff delay
  (:func:`~repro.sim.resilience.backoff_delay`) until ``max_retries``
  is exhausted; each attempt's wall-clock ``deadline`` is enforced
  with SIGALRM inside the worker.
* **Rebuild** — a slot whose process died hard (OOM kill,
  ``os._exit``) is rebuilt in place; the attempt counts as failed and
  is charged to that slot's health.

:func:`run_grid` adds the grid's bookkeeping on top:

* **Caching** — memo and persistent-store hits are resolved
  (:func:`~repro.sim.runner.lookup`) before anything is scheduled;
  workers write their results back to the store
  so a repeat run (even in a different process) is free.
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
scale, config), so the slots return bit-identical results to the
serial ``run_suite`` loop — with or without injected faults
(``tests/test_chaos.py`` locks this in).
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import os
import selectors
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.sim import runner
from repro.sim.chaos import inject
from repro.sim.options import RunOptions
from repro.sim.resilience import (
    BACKOFF_CAP_S,
    RunJournal,
    WorkerHealth,
    backoff_delay,
    load_journal,
)
from repro.sim.runner import GridReport, Task, TaskReport
from repro.sim.stats import SimResult
from repro.sim.store import default_store, store_key


class TaskTimeout(Exception):
    """A task exceeded its per-task wall-clock deadline."""


def _alarm_handler(signum, frame):
    raise TaskTimeout("task exceeded its deadline")


def execute_cell(payload) -> Tuple[str, object, float, int, Optional[str]]:
    """Worker-side entry: run one task, never raise.

    ``payload`` is ``(task, use_cache, deadline, chaos, attempt,
    kernel)``.  Returns ``("ok", SimResult, wall, pid, None)`` or
    ``("error", message, wall, pid, traceback_text)`` — the traceback
    is formatted *here*, in the failing process, so the parent's
    failure report shows the real remote stack instead of just the
    exception message.  The deadline is enforced with SIGALRM where
    available (slot workers run tasks on their main thread);
    simulations are pure CPU loops, so the alarm lands promptly
    between bytecodes.
    """
    task, use_cache, deadline, chaos, attempt, kernel = payload
    start = time.perf_counter()
    alarmed = False
    try:
        if deadline and hasattr(signal, "SIGALRM"):
            signal.signal(signal.SIGALRM, _alarm_handler)
            signal.alarm(max(1, int(math.ceil(deadline))))
            alarmed = True
        inject(chaos, task.label, attempt)
        result = runner.run_task(
            task, RunOptions(use_cache=use_cache, kernel=kernel)
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


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class Outcome:
    """How one cell ended: its result or its error, and what it cost."""

    ok: bool
    #: The SimResult when ``ok``, else the one-line error message.
    value: object
    #: Traceback of the final failed attempt, when one was formatted.
    traceback: Optional[str] = None
    wall: float = 0.0
    pid: Optional[int] = None
    #: Name of the slot that ran the last attempt.
    slot: Optional[str] = None
    attempts: int = 0


def spec_failure(exc: Exception) -> Outcome:
    """The outcome of a cell whose workload or policy spec is malformed.

    Store keys canonicalize both specs in the parent, so a bad spec
    raises in :func:`~repro.sim.store.store_key` before any slot sees
    the cell.
    Call this in that ``except`` block: the cell fails alone, with
    zero attempts, instead of the whole grid or submission.
    """
    return Outcome(
        ok=False, value=str(exc) or repr(exc),
        traceback=traceback.format_exc(),
    )


class Execution:
    """One in-flight cell, shared by every subscriber that wants it."""

    def __init__(
        self, key: str, task: Task, options: RunOptions, subscriber
    ) -> None:
        self.key = key
        self.task = task
        self.options = options
        self.subscribers = [subscriber]
        self.attempts = 0
        self.cancelled = False


def _slot_main(conn) -> None:
    """A slot's worker process: run each cell sent down ``conn``.

    Sends back :func:`execute_cell`'s outcome tuple, and exits when
    the parent closes the pipe.
    """
    # Ctrl-C is the parent's to handle; it stops the slots itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        conn.send(execute_cell(payload))


class _Slot:
    """One schedulable slot: a single worker process behind a pipe.

    The process starts on first use, so closing a slot whose worker
    died rebuilds it in place on its next dispatch.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy = False
        self._process = None
        self._conn = None

    def fileno(self) -> int:
        """The fd that the worker's reply, or its death, makes readable."""
        return self._conn.fileno()

    def send(self, payload) -> None:
        """Start one cell on the worker, starting the worker if need be."""
        if self._process is None:
            # Fork keeps the loaded package in the worker (Linux).
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            self._conn, child = context.Pipe()
            self._process = context.Process(
                target=_slot_main, args=(child,), daemon=True
            )
            self._process.start()
            child.close()
        try:
            self._conn.send(payload)
        except OSError:
            pass  # the worker is gone: its pipe reads as EOF

    def receive(self) -> Tuple[str, object, float, int, Optional[str]]:
        """The reply to the cell sent last (EOFError if the worker died)."""
        return self._conn.recv()

    def close(self) -> Optional[int]:
        """Stop the worker; returns its exit code."""
        if self._process is None:
            return None
        process = self._process
        self._conn.close()
        process.terminate()
        process.join()
        self._process = self._conn = None
        return process.exitcode


class _GridLoop:
    """The part of an asyncio event loop the scheduler uses.

    ``add_reader``/``remove_reader``/``call_later`` on a selector, so
    :func:`run_grid` runs its cells without importing asyncio (whose
    import alone costs a process about 2.6 MB of RSS).
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._timers: List[Tuple[float, int, Callable, tuple]] = []
        self._sequence = 0

    def add_reader(self, fd: int, callback: Callable, *args) -> None:
        self._selector.register(
            fd, selectors.EVENT_READ, (callback, args)
        )

    def remove_reader(self, fd: int) -> None:
        self._selector.unregister(fd)

    def call_later(self, delay: float, callback: Callable, *args) -> None:
        self._sequence += 1
        heapq.heappush(self._timers, (
            time.monotonic() + delay, self._sequence, callback, args,
        ))

    def run_until(self, done: Callable[[], bool]) -> None:
        while not done():
            timeout = None
            if self._timers:
                timeout = max(0.0, self._timers[0][0] - time.monotonic())
            for key, _ in self._selector.select(timeout):
                callback, args = key.data
                callback(*args)
            while self._timers and self._timers[0][0] <= time.monotonic():
                _, _, callback, args = heapq.heappop(self._timers)
                callback(*args)

    def close(self) -> None:
        self._selector.close()


class CellScheduler:
    """Runs cells on N single-worker process slots.

    ``loop`` is an asyncio event loop, or anything with its
    ``add_reader``/``remove_reader``/``call_later`` methods; every
    scheduler call and callback happens on its thread.
    ``on_start(execution, slot_name, attempt)`` fires as each attempt
    is dispatched; ``on_done(execution, outcome)`` fires once, when the
    execution succeeds or exhausts ``max_retries``.  Both act for every
    subscriber in ``execution.subscribers``.
    """

    def __init__(
        self,
        workers: int,
        loop,
        on_start: Callable[[Execution, str, int], None],
        on_done: Callable[[Execution, Outcome], None],
    ) -> None:
        self.health = WorkerHealth()
        self.slots = [
            _Slot("worker-%d" % index)
            for index in range(workers or default_workers())
        ]
        #: store key -> the execution currently running it.
        self.executions: Dict[str, Execution] = {}
        self.retries = 0
        self.rebuilds = 0
        self._loop = loop
        self._on_start = on_start
        self._on_done = on_done
        #: Executions waiting for a free slot, first come first served.
        self._waiting: "deque[Execution]" = deque()
        self._closed = False

    def counters(self) -> Dict[str, int]:
        """Resilience counters, named alike in grid and service reports."""
        return {
            "retries": self.retries,
            "worker_rebuilds": self.rebuilds,
            "worker_trips": self.health.trips,
        }

    def submit(
        self, key: str, task: Task, options: RunOptions, subscriber
    ) -> Execution:
        """Attach ``subscriber`` to ``key``'s execution, or start one."""
        execution = self.executions.get(key)
        if execution is not None:
            execution.subscribers.append(subscriber)
            return execution
        execution = Execution(key, task, options, subscriber)
        self.executions[key] = execution
        self._waiting.append(execution)
        self._dispatch()
        return execution

    def cancel(self, execution: Execution) -> None:
        """Stop ``execution``; an attempt already running ends unseen."""
        execution.cancelled = True
        self._forget(execution)

    def close(self) -> None:
        """Stop dispatching and stop every slot's worker."""
        self._closed = True
        for slot in self.slots:
            if slot.busy:
                self._loop.remove_reader(slot.fileno())
            slot.close()

    def _forget(self, execution: Execution) -> None:
        if self.executions.get(execution.key) is execution:
            del self.executions[execution.key]

    def _dispatch(self) -> None:
        """Give each free slot, best by health first, a waiting cell."""
        while self._waiting and not self._closed:
            free = [slot for slot in self.slots if not slot.busy]
            if not free:
                return
            execution = self._waiting.popleft()
            if execution.cancelled:
                continue
            name = self.health.pick([slot.name for slot in free])
            slot = next(slot for slot in free if slot.name == name)
            execution.attempts += 1
            self.health.record_dispatch(slot.name)
            self._on_start(execution, slot.name, execution.attempts)
            options = execution.options
            slot.send(
                (execution.task, options.use_cache, options.deadline,
                 options.chaos, execution.attempts, options.kernel)
            )
            self._loop.add_reader(
                slot.fileno(), self._collect, execution, slot
            )
            # Busy exactly while its reader is registered, so close()
            # can unregister it, even after a Ctrl-C between the two.
            slot.busy = True

    def _collect(self, execution: Execution, slot: _Slot) -> None:
        """Settle the attempt on ``slot``: its reply, or its death."""
        slot.busy = False
        self._loop.remove_reader(slot.fileno())
        try:
            status, value, wall, pid, tb = slot.receive()
        except Exception as exc:
            # The worker died hard (OOM kill, os._exit) or its reply
            # was unreadable: rebuild the slot, and charge the failed
            # attempt to it.
            status = "error"
            value = "%s: the process of slot %s died (exit code %s)" % (
                type(exc).__name__, slot.name, slot.close(),
            )
            wall, pid, tb = 0.0, None, None
            self.rebuilds += 1
        ok = status == "ok"
        if ok:
            self.health.record_success(slot.name)
        else:
            self.health.record_failure(slot.name)
        options = execution.options
        if not execution.cancelled:
            if ok or execution.attempts > options.max_retries:
                self._forget(execution)
                self._on_done(execution, Outcome(
                    ok=ok, value=value, traceback=tb, wall=wall, pid=pid,
                    slot=slot.name, attempts=execution.attempts,
                ))
            else:
                self.retries += 1
                self._loop.call_later(
                    backoff_delay(
                        options.backoff_base, BACKOFF_CAP_S,
                        execution.attempts, execution.task.label,
                    ),
                    self._retry, execution,
                )
        self._dispatch()

    def _retry(self, execution: Execution) -> None:
        self._waiting.append(execution)
        self._dispatch()


def run_grid(
    tasks: Sequence[Task],
    options: Optional[RunOptions] = None,
) -> GridReport:
    """Run ``tasks`` on the cell scheduler; never raises for a bad task.

    Execution knobs come from ``options``
    (:class:`~repro.sim.options.RunOptions`).  ``options.workers`` is
    the number of process slots; ``0`` means "CPU count" here (the
    grid is inherently parallel).  Tasks that share a store key
    execute once and all get the result.

    A ``KeyboardInterrupt`` mid-run is graceful: the partial report is
    returned (``interrupted=True``), the journal records every
    completed cell, and a follow-up run with
    ``RunOptions(resume=run_id)`` re-executes only the missing ones.
    """
    if options is None:
        options = RunOptions()
    ordered: List[Task] = list(dict.fromkeys(tasks))

    resume_keys = set()
    if options.resume is not None:
        if not options.use_cache:
            raise ValueError(
                "RunOptions(resume=...) needs the result store; it "
                "cannot be combined with use_cache=False"
            )
        resume_keys = set(load_journal(options.resume).completed)

    workers = options.workers or default_workers()
    journal = RunJournal.create(
        run_id=options.run_id,
        meta={
            "workers": workers,
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
    keys: Dict[Task, str] = {}
    pending: List[Task] = []
    resumed_cells = 0

    def finish(report: TaskReport) -> None:
        reports.append(report)
        if options.progress is not None:
            options.progress(report, len(reports), len(ordered))

    def settle(task: Task, outcome: Outcome) -> None:
        """Record how one task that was not a cache hit ended."""
        if outcome.ok:
            results[task] = outcome.value
            if options.use_cache:
                runner.seed_cache(task, outcome.value)
            if journal is not None:
                journal.task_finished(
                    task, keys[task], cache_hit=False, resumed=False,
                    wall=outcome.wall, worker=outcome.pid,
                    attempts=outcome.attempts,
                )
        else:
            failures[task] = outcome.traceback or outcome.value
            if journal is not None:
                journal.task_failed(
                    task, outcome.value, outcome.traceback,
                    outcome.attempts,
                )
        finish(TaskReport(
            task=task, ok=outcome.ok, wall_time=outcome.wall,
            worker=outcome.pid, attempts=outcome.attempts,
            error=None if outcome.ok else outcome.value,
            traceback=outcome.traceback,
        ))

    def on_start(execution: Execution, slot: str, attempt: int) -> None:
        if journal is not None:
            for task in execution.subscribers:
                journal.task_started(task, attempt)

    def on_done(execution: Execution, outcome: Outcome) -> None:
        for task in execution.subscribers:
            settle(task, outcome)

    loop = _GridLoop()
    scheduler = CellScheduler(workers, loop, on_start, on_done)
    interrupted = False
    try:
        for task in ordered:
            try:
                keys[task] = store_key(task)
            except (KeyError, ValueError) as exc:
                settle(task, spec_failure(exc))
                continue
            cached = provenance = None
            if options.use_cache:
                cached, provenance, _ = runner.lookup(task, keys[task])
            if cached is None:
                pending.append(task)
                continue
            results[task] = cached
            resumed = provenance == "store" and keys[task] in resume_keys
            resumed_cells += resumed
            if journal is not None:
                journal.task_finished(
                    task, keys[task], cache_hit=True, resumed=resumed,
                    wall=0.0, worker=None, attempts=0,
                )
            finish(TaskReport(
                task=task, ok=True, cache_hit=True, resumed=resumed,
            ))
        for task in pending:
            scheduler.submit(keys[task], task, options, task)
        loop.run_until(lambda: not scheduler.executions)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        scheduler.close()
        loop.close()
        if journal is not None:
            journal.run_finished(
                completed=len(results), failed=len(failures),
                interrupted=interrupted,
            )

    store = default_store()
    resilience: Dict[str, object] = dict(scheduler.counters())
    resilience.update(
        store_quarantined=store.quarantined if store is not None else 0,
        resumed_from=options.resume,
        resumed_cells=resumed_cells,
    )
    _record_engine_metrics(resilience)

    cache_hits = sum(1 for report in reports if report.cache_hit)
    return GridReport(
        results=results,
        reports=reports,
        workers=workers,
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
    the engine had to work (retries, slot rebuilds, quarantined store
    entries) alongside what it computed.
    """
    if not obs.metrics_enabled():
        return
    registry = obs.MetricsRegistry()
    for name, help_text in (
        ("retries", "task attempts beyond the first"),
        ("worker_rebuilds", "slot processes rebuilt after dying hard"),
        ("worker_trips", "slot circuits tripped by consecutive failures"),
        ("store_quarantined",
         "store entries quarantined on integrity failure"),
    ):
        registry.counter(
            "engine_%s_total" % name, help_text
        ).inc(resilience[name])
    obs.record_session(registry.snapshot())


__all__ = [
    "CellScheduler",
    "Execution",
    "Outcome",
    "Task",
    "TaskReport",
    "GridReport",
    "run_grid",
    "default_workers",
    "execute_cell",
    "spec_failure",
]
