"""The one cell scheduler, the one cell lifecycle, and the grid.

Regenerating the paper is embarrassingly parallel — every cell of every
figure's matrix is an independent simulation.  Execution knobs travel
in one :class:`~repro.sim.options.RunOptions` object.

:class:`CellScheduler` runs cells for :func:`run_grid` and the job
service (:mod:`repro.service.server`) alike:

* **Slots** — N worker processes, one cell at a time each, driven by
  callbacks on one event loop: the service's asyncio loop, or a small
  selector loop inside :func:`run_grid`.  Waiting cells take free
  slots first come, first served, the lowest-numbered free slot
  first.  With no slots (``workers=0``, grids only) each cell runs in
  this process, through the same attempt, retry and settlement code.
* **Dedup** — cells are keyed by their store key
  (:func:`~repro.sim.store.store_key`); a cell whose key is already in
  flight attaches to that execution instead of running twice.
* **Retry with backoff** — a failed attempt is re-dispatched after a
  deterministic exponential-backoff delay
  (:func:`~repro.sim.resilience.backoff_delay`) until ``max_retries``
  is exhausted; each attempt's wall-clock ``deadline`` is enforced
  with SIGALRM where the attempt runs.
* **Rebuild** — a slot whose process died hard (OOM kill,
  ``os._exit``) is rebuilt in place; the attempt counts as failed.
  The slots are identical processes, so a failure belongs to the
  cell, and ``max_retries`` bounds every cell.

:class:`GridRun` is what happens to a cell before and after that, for
a grid and for each service job alike:

* **Admission** — store keys are computed in the parent, so a
  malformed workload or policy spec fails its cell alone.
* **Caching** — memo and persistent-store hits are resolved before
  anything is scheduled (the service probes only the store).  A slot
  trusts that probe: it gets the cell's store key with the cell,
  simulates at once and writes the result back under that key, so a
  repeat run (even in a different process) is free.
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

:func:`run_grid` is one :class:`GridRun` on a private scheduler.  A
seeded :class:`~repro.sim.chaos.ChaosConfig` injects crashes/delays
per (task, attempt) so all of the above is exercised
deterministically in CI.

Determinism: simulations are seeded functions of (benchmark, policy,
scale, config), so slots and in-process runs return bit-identical
results — with or without injected faults (``tests/test_chaos.py``
locks this in).
"""

from __future__ import annotations

import heapq
import math
import os
import selectors
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.sim import runner
from repro.sim.chaos import inject
from repro.sim.options import RunOptions, check_workers
from repro.sim.resilience import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    RunJournal,
    backoff_delay,
    load_journal,
)
from repro.sim.runner import GridReport, Task, TaskReport
from repro.sim.stats import SimResult
from repro.sim.store import default_store, store_key


#: The slot name of a cell attempt run in this process (``workers=0``).
IN_PROCESS = "in-process"


class TaskTimeout(Exception):
    """A task exceeded its per-task wall-clock deadline."""


def _alarm_handler(signum, frame):
    raise TaskTimeout("task exceeded its deadline")


def execute_cell(payload) -> Tuple[str, object, float, int, Optional[str]]:
    """Worker-side entry: run one task, never raise.

    ``payload`` is ``(task, key, deadline, chaos, attempt)``.
    ``key`` is the store key the parent computed and probed (a miss),
    or None when the cell must not be stored; the worker trusts that
    probe and simulates straight away.  Returns ``("ok", SimResult,
    wall, pid, None)`` or ``("error", message, wall, pid,
    traceback_text)`` — the traceback is formatted *here*, in the
    failing process, so the parent's failure report shows the real
    remote stack instead of just the exception message.  The deadline
    is enforced with SIGALRM where available, and only on the main
    thread, the one thread ``signal.signal`` accepts: slot workers and
    a grid run from a CLI run cells there.  Simulations are pure CPU
    loops, so the alarm lands promptly between bytecodes.
    """
    task, key, deadline, chaos, attempt = payload
    start = time.perf_counter()
    alarmed = bool(deadline) and hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )
    previous = None
    try:
        if alarmed:
            previous = signal.signal(signal.SIGALRM, _alarm_handler)
            signal.alarm(max(1, int(math.ceil(deadline))))
        inject(chaos, task.label, attempt)
        result = runner.simulate(task, key)
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
            signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)


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


def _slot_main(conn, parent_end) -> None:
    """A slot's worker process: run each cell sent down ``conn``.

    Sends back :func:`execute_cell`'s outcome tuple, and exits when
    the parent closes the pipe or dies.
    """
    # A forked copy of the parent's end would keep the pipe open after
    # a kill -9 of the parent, and this worker (holding the service's
    # listening socket) would wait for a next cell forever.
    parent_end.close()
    # Ctrl-C is the parent's to handle; it stops the slots itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            conn.send(execute_cell(conn.recv()))
    except (EOFError, OSError):
        return  # the parent closed the pipe, or died


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
            # Imported here, so a grid run in this process never pays
            # for it.  Fork keeps the loaded package in the worker.
            import multiprocessing

            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            self._conn, child = context.Pipe()
            self._process = context.Process(
                target=_slot_main, args=(child, self._conn), daemon=True
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
    """Runs cells on N single-worker process slots, or in this process.

    With ``workers=0`` there are no slots: each attempt runs here, as
    it is dispatched.  ``loop`` is an asyncio event loop, or anything
    with its ``add_reader``/``remove_reader``/``call_later`` methods;
    every scheduler call happens on its thread.  A subscriber is a
    ``(run, task)`` pair: the scheduler calls ``run.started(task, slot,
    attempt)`` as each attempt is dispatched, and ``run.settle(task,
    outcome)`` once, when the execution succeeds or exhausts
    ``max_retries``.
    """

    def __init__(self, workers: int, loop) -> None:
        self.slots = [
            _Slot("worker-%d" % index)
            for index in range(check_workers(workers))
        ]
        #: store key -> the execution currently running it.
        self.executions: Dict[str, Execution] = {}
        self.retries = 0
        self.rebuilds = 0
        #: Executions settled, by how they ended.
        self.succeeded = 0
        self.failed = 0
        self._loop = loop
        #: Executions waiting for a free slot, first come first served.
        self._waiting: "deque[Execution]" = deque()
        self._closed = False

    def counters(self) -> Dict[str, int]:
        """Resilience counters, named alike in grid and service reports."""
        return {
            "retries": self.retries,
            "worker_rebuilds": self.rebuilds,
        }

    def submit(
        self, run: "GridRun", tasks: Sequence[Task]
    ) -> Dict[Task, Execution]:
        """Attach each ``(run, task)`` to its key's execution, or start
        one; returns the execution each task joined.

        Every task is attached before any is dispatched, so tasks that
        share a key run once even when attempts run in this process.
        """
        joined = {}
        for task in tasks:
            key = run.keys[task]
            execution = self.executions.get(key)
            if execution is None:
                execution = Execution(key, task, run.options, (run, task))
                self.executions[key] = execution
                self._waiting.append(execution)
            else:
                execution.subscribers.append((run, task))
            joined[task] = execution
        self._dispatch()
        return joined

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
        """Start waiting cells: each on the lowest-numbered free slot,
        or, with no slots, one after another in this process."""
        while self._waiting and not self._closed:
            slot = next((slot for slot in self.slots if not slot.busy), None)
            if slot is None and self.slots:
                return
            execution = self._waiting.popleft()
            if execution.cancelled:
                continue
            execution.attempts += 1
            name = IN_PROCESS if slot is None else slot.name
            for run, task in execution.subscribers:
                run.started(task, name, execution.attempts)
            options = execution.options
            payload = (
                execution.task,
                execution.key if options.use_cache else None,
                options.deadline, options.chaos, execution.attempts,
            )
            if slot is None:
                self._settle_attempt(execution, name, execute_cell(payload))
                continue
            slot.send(payload)
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
            reply = slot.receive()
        except Exception as exc:
            # The worker died hard (OOM kill, os._exit) or its reply
            # was unreadable: the attempt failed, and the slot is
            # rebuilt on its next dispatch.
            message = "%s: the process of slot %s died (exit code %s)" % (
                type(exc).__name__, slot.name, slot.close(),
            )
            reply = ("error", message, 0.0, None, None)
            self.rebuilds += 1
        self._settle_attempt(execution, slot.name, reply)
        self._dispatch()

    def _settle_attempt(self, execution: Execution, slot: str, reply) -> None:
        """Settle ``execution`` on one attempt's :func:`execute_cell`
        reply, or schedule its retry after the backoff."""
        status, value, wall, pid, tb = reply
        if execution.cancelled:
            return
        ok = status == "ok"
        options = execution.options
        if ok or execution.attempts > options.max_retries:
            self._forget(execution)
            if ok:
                self.succeeded += 1
            else:
                self.failed += 1
            outcome = Outcome(
                ok=ok, value=value, traceback=tb, wall=wall, pid=pid,
                slot=slot, attempts=execution.attempts,
            )
            for run, task in execution.subscribers:
                run.settle(task, outcome)
        else:
            self.retries += 1
            self._loop.call_later(
                backoff_delay(
                    BACKOFF_BASE_S, BACKOFF_CAP_S,
                    execution.attempts, execution.task.label,
                ),
                self._retry, execution,
            )

    def _retry(self, execution: Execution) -> None:
        self._waiting.append(execution)
        self._dispatch()


class GridRun:
    """One grid's cells, from admission to settlement.

    The one cell lifecycle: :func:`run_grid` runs one on a private
    :class:`CellScheduler`, and the job service one per job on its
    shared scheduler.  ``memo`` is where the two differ: the grid
    (True) probes the memo, then the store
    (:func:`~repro.sim.runner.lookup`), and keeps every ``SimResult``;
    the service (False) probes only the store, so a long-lived daemon
    pins no results in memory.  ``resume_keys`` are the store keys a
    resumed journal completed: a store hit on one is marked resumed.
    ``on_started(task, slot, attempt)`` and ``on_settled(task,
    outcome, source)`` let a job follow its cells; ``source`` names a
    cache hit's layer (``"memo"``, ``"store"``, ``"resume"``).
    """

    def __init__(
        self,
        scheduler: CellScheduler,
        options: RunOptions,
        meta: Dict[str, object],
        run_id: Optional[str] = None,
        resume_keys: Collection[str] = (),
        memo: bool = True,
        on_started: Optional[Callable] = None,
        on_settled: Optional[Callable] = None,
    ) -> None:
        self.scheduler = scheduler
        self.options = options
        self.resume_keys = resume_keys
        self.memo = memo
        self._on_started = on_started
        self._on_settled = on_settled
        self.journal = RunJournal.create(run_id=run_id, meta=meta)
        self.run_id = self.journal.run_id if self.journal else run_id
        self.keys: Dict[Task, str] = {}
        self.results: Dict[Task, SimResult] = {}
        self.failures: Dict[Task, str] = {}
        self.reports: List[TaskReport] = []
        self.total = 0

    def admit(self, tasks: Sequence[Task]) -> Dict[Task, Execution]:
        """Settle each task's spec failure or cache hit, then schedule
        the misses; returns the execution each miss joined."""
        self.total += len(tasks)
        misses = []
        for task in tasks:
            try:
                key = self.keys[task] = store_key(task)
            except (KeyError, ValueError) as exc:
                # store_key canonicalizes both specs: a malformed one
                # fails its cell alone, with zero attempts.
                self.settle(task, Outcome(
                    ok=False, value=str(exc) or repr(exc),
                    traceback=traceback.format_exc(),
                ))
                continue
            cached, source = self._probe(task, key)
            if cached is None:
                misses.append(task)
            else:
                self.settle(task, Outcome(ok=True, value=cached), source)
        return self.scheduler.submit(self, misses)

    def _probe(self, task: Task, key: str):
        """``(result, source)``; the result is None on a miss."""
        cached = source = None
        if self.options.use_cache and self.memo:
            cached, source, _ = runner.lookup(task, key)
        elif self.options.use_cache:
            store = default_store()
            cached = store.load(key) if store is not None else None
            source = "store"
        if source == "store" and key in self.resume_keys:
            source = "resume"
        return cached, source

    def started(self, task: Task, slot: str, attempt: int) -> None:
        """An attempt at ``task`` was dispatched to ``slot``."""
        if self.journal is not None:
            self.journal.task_started(task, attempt)
        if self._on_started is not None:
            self._on_started(task, slot, attempt)

    def settle(
        self, task: Task, outcome: Outcome, source: Optional[str] = None
    ) -> None:
        """Record how ``task`` ended; ``source`` names a hit's layer."""
        hit = source is not None
        if outcome.ok:
            if self.memo:
                self.results[task] = outcome.value
                if not hit and self.options.use_cache:
                    runner.seed_cache(task, outcome.value)
            if self.journal is not None:
                self.journal.task_finished(
                    task, self.keys[task], cache_hit=hit,
                    resumed=source == "resume", wall=outcome.wall,
                    worker=outcome.pid, attempts=outcome.attempts,
                )
        else:
            self.failures[task] = outcome.traceback or outcome.value
            if self.journal is not None:
                self.journal.task_failed(
                    task, outcome.value, outcome.traceback,
                    outcome.attempts,
                )
        report = TaskReport(
            task=task, ok=outcome.ok, cache_hit=hit,
            resumed=source == "resume", wall_time=outcome.wall,
            worker=outcome.pid, attempts=outcome.attempts,
            error=None if outcome.ok else outcome.value,
            traceback=outcome.traceback,
        )
        self.reports.append(report)
        if self.options.progress is not None:
            self.options.progress(report, len(self.reports), self.total)
        if self._on_settled is not None:
            self._on_settled(task, outcome, source)

    def finish(self, interrupted: bool = False) -> None:
        """Journal ``run_finished`` and close the journal (once)."""
        journal, self.journal = self.journal, None
        if journal is not None:
            journal.run_finished(
                completed=len(self.reports) - len(self.failures),
                failed=len(self.failures), interrupted=interrupted,
            )

    def close(self) -> None:
        """Close the journal unfinished, so a later run can resume it."""
        if self.journal is not None:
            self.journal.close()


def run_grid(
    tasks: Sequence[Task],
    options: Optional[RunOptions] = None,
) -> GridReport:
    """Run ``tasks`` on the cell scheduler; never raises for a bad task.

    Execution knobs come from ``options``
    (:class:`~repro.sim.options.RunOptions`).  ``options.workers`` is
    the number of process slots; ``0`` runs every cell in this
    process, with the same retries, journal and settlement.  Tasks
    that share a store key execute once and all get the result.

    A ``KeyboardInterrupt`` mid-run is graceful: the partial report is
    returned (``interrupted=True``), the journal records every
    completed cell, and a follow-up run with
    ``RunOptions(resume=run_id)`` re-executes only the missing ones.
    """
    if options is None:
        options = RunOptions()
    ordered: List[Task] = list(dict.fromkeys(tasks))

    resume_keys = frozenset()
    if options.resume is not None:
        if not options.use_cache:
            raise ValueError(
                "RunOptions(resume=...) needs the result store; it "
                "cannot be combined with use_cache=False"
            )
        resume_keys = frozenset(load_journal(options.resume).completed)

    loop = _GridLoop()
    scheduler = CellScheduler(options.workers, loop)
    workers = len(scheduler.slots)
    run = GridRun(
        scheduler, options, run_id=options.run_id, resume_keys=resume_keys,
        meta={
            "workers": workers,
            "tasks": len(ordered),
            "benchmarks": sorted({t.benchmark for t in ordered}),
            "policies": sorted({t.policy_spec for t in ordered}),
            "resumed_from": options.resume,
        },
    )
    started = time.perf_counter()
    interrupted = False
    try:
        run.admit(ordered)
        loop.run_until(lambda: not scheduler.executions)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        scheduler.close()
        loop.close()
        run.finish(interrupted)

    store = default_store()
    quarantined = store.quarantined if store is not None else 0
    resilience: Dict[str, object] = dict(scheduler.counters())
    resilience.update(
        store_quarantined=quarantined,
        resumed_from=options.resume,
        resumed_cells=sum(report.resumed for report in run.reports),
    )
    cache_hits = sum(1 for report in run.reports if report.cache_hit)
    # Tasks that share a store key share one execution and its wall.
    walls = {
        run.keys.get(report.task): report.wall_time
        for report in run.reports if not report.cache_hit
    }
    return GridReport(
        results=run.results,
        reports=run.reports,
        workers=workers,
        elapsed=time.perf_counter() - started,
        cache_hits=cache_hits,
        cache_misses=len(ordered) - cache_hits,
        failures=run.failures,
        run_id=run.run_id,
        interrupted=interrupted,
        resilience=resilience,
        busy=sum(walls.values()),
    )


__all__ = [
    "CellScheduler",
    "Execution",
    "GridRun",
    "Outcome",
    "Task",
    "TaskReport",
    "GridReport",
    "run_grid",
    "execute_cell",
]
