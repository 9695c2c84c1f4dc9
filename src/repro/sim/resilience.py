"""Fault-tolerant execution primitives for the cell scheduler.

Three pieces, all deterministic and all testable under the seeded
chaos harness (:mod:`repro.sim.chaos`):

* :func:`backoff_delay` — exponential backoff with *deterministic*
  jitter.  Retried tasks wait ``base * 2**(attempt-1)`` seconds scaled
  by a jitter factor derived from ``sha256(seed, task label,
  attempt)``, so two runs of the same grid retry on the same schedule
  (no wall-clock or RNG state leaks into behavior) while distinct
  tasks still de-synchronize.

* :class:`WorkerHealth` — ranks the scheduler's process slots by
  recency and observed health, and trips a slot's circuit after
  :data:`TRIP_THRESHOLD` consecutive failures.

* :class:`RunJournal` — an append-only JSONL journal of one grid
  run: ``run_started`` (with the suite matrix), per-attempt
  ``task_started``, ``task_finished`` (with the result's store key),
  ``task_failed`` (with the remote traceback), and ``run_finished``.
  Journals live under ``<cache dir>/runs/<run_id>.jsonl`` next to the
  result store, so an interrupted run is resumable: ``--resume
  RUN_ID`` replays completed cells from the journal + store and
  re-executes only the missing ones (see :func:`load_journal`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Journal line format; bump when event fields change incompatibly.
JOURNAL_SCHEMA = "repro.journal/v1"

#: Longest wait between two attempts of one task, in seconds.
BACKOFF_CAP_S = 2.0

#: Consecutive failures that trip a slot's circuit, and the dispatch
#: ticks a tripped slot sits out before a half-open probe.
TRIP_THRESHOLD = 3
COOLDOWN = 8


def journal_root() -> Optional[Path]:
    """Directory holding run journals, or None when persistence is off.

    Lives next to the result store (``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``) so one environment variable redirects both.
    """
    if os.environ.get("REPRO_NO_STORE"):
        return None
    root = os.environ.get("REPRO_CACHE_DIR") or str(
        Path.home() / ".cache" / "repro"
    )
    return Path(root) / "runs"


def new_run_id(prefix: str = "run") -> str:
    """A sortable, collision-resistant id: ``run`` for a grid run,
    ``job`` for a service job."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    salt = hashlib.sha256(
        ("%d|%r|%s" % (os.getpid(), time.time(), prefix)).encode()
    ).hexdigest()[:6]
    return "%s-%s-%s" % (prefix, stamp, salt)


def backoff_delay(
    base: float,
    cap: float,
    attempt: int,
    label: str,
    seed: int = 0,
) -> float:
    """Deterministic exponential backoff before retry ``attempt``.

    ``attempt`` counts completed attempts (1 = first retry).  Returns
    0 when ``base`` is non-positive.  The jitter factor lies in
    ``[1.0, 2.0)`` and is a pure function of ``(seed, label,
    attempt)``, so schedules are reproducible run-to-run.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    raw = min(cap, base * (2 ** (attempt - 1)))
    digest = hashlib.sha256(
        ("%d|%s|%d" % (seed, label, attempt)).encode()
    ).digest()
    jitter = 1.0 + int.from_bytes(digest[:8], "big") / 2.0**64
    return min(cap, raw * jitter)


class WorkerHealth:
    """Adaptive worker ranking by recency and observed health.

    The cell scheduler (:class:`repro.sim.parallel.CellScheduler`)
    runs cells on a set of process slots; this class decides *which*
    slot gets the next cell.  In the spirit of AWRP's adaptive
    weight ranking (arXiv:1107.4851) — rank by a weight combining
    recency with observed frequency instead of pure round-robin — each
    worker's score blends its success rate over a bounded outcome
    window with a recency bonus for recently-successful workers, so a
    flaky host organically drains traffic while a recovered one climbs
    back.

    Each worker has its own circuit: ``trip_threshold`` consecutive
    failures trip a worker, and a tripped worker only receives work
    again as a half-open probe — when every worker is tripped (or
    after ``cooldown`` dispatches elsewhere), the
    least-recently-tripped one gets a single chance to prove itself.
    All state advances on logical dispatch ticks, never wall-clock, so
    scheduling decisions are reproducible in tests.
    """

    def __init__(
        self,
        trip_threshold: int = TRIP_THRESHOLD,
        cooldown: int = COOLDOWN,
        window: int = 32,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.trip_threshold = trip_threshold
        self.cooldown = cooldown
        self.window = window
        self.tick = 0
        self.trips = 0
        self.probes = 0
        self._workers: Dict[str, Dict[str, object]] = {}

    def _state(self, name: str) -> Dict[str, object]:
        state = self._workers.get(name)
        if state is None:
            state = self._workers[name] = {
                "outcomes": [],          # bounded recent True/False
                "consecutive_failures": 0,
                "last_success_tick": None,
                "last_dispatch_tick": None,
                "tripped_at": None,
                "dispatches": 0,
                "successes": 0,
                "failures": 0,
            }
        return state

    # -- observations ----------------------------------------------------

    def record_dispatch(self, name: str) -> None:
        self.tick += 1
        state = self._state(name)
        state["dispatches"] += 1
        state["last_dispatch_tick"] = self.tick

    def record_success(self, name: str) -> None:
        state = self._state(name)
        state["successes"] += 1
        state["consecutive_failures"] = 0
        state["tripped_at"] = None
        state["last_success_tick"] = self.tick
        self._observe(state, True)

    def record_failure(self, name: str) -> None:
        state = self._state(name)
        state["failures"] += 1
        state["consecutive_failures"] += 1
        self._observe(state, False)
        if (
            self.trip_threshold > 0
            and state["consecutive_failures"] >= self.trip_threshold
        ):
            if state["tripped_at"] is None:
                self.trips += 1
            # (Re-)arm the cooldown from the latest failure, so a
            # worker that fails its half-open probe trips again instead
            # of sneaking back into the healthy ranking.
            state["tripped_at"] = self.tick

    def _observe(self, state: Dict[str, object], ok: bool) -> None:
        outcomes = state["outcomes"]
        outcomes.append(ok)
        if len(outcomes) > self.window:
            del outcomes[: len(outcomes) - self.window]

    # -- ranking ---------------------------------------------------------

    def is_tripped(self, name: str) -> bool:
        """True while ``name``'s circuit is open (no cooldown elapsed)."""
        state = self._state(name)
        tripped_at = state["tripped_at"]
        if tripped_at is None:
            return False
        return (self.tick - tripped_at) < max(self.cooldown, 1)

    def score(self, name: str) -> float:
        """Health + recency weight; higher is a better dispatch target."""
        state = self._state(name)
        outcomes = state["outcomes"]
        if outcomes:
            health = sum(outcomes) / float(len(outcomes))
        else:
            health = 1.0  # unobserved workers deserve traffic
        last_success = state["last_success_tick"]
        if last_success is None:
            recency = 0.5 if not outcomes else 0.0
        else:
            recency = 1.0 / (1.0 + (self.tick - last_success))
        return health + 0.5 * recency

    def rank(self, names) -> List[str]:
        """``names`` ordered best-first: open circuits last, then score.

        Deterministic: ties break on name, so equal workers are picked
        in a stable order.
        """
        return sorted(
            names,
            key=lambda name: (
                self.is_tripped(name), -self.score(name), name
            ),
        )

    def pick(self, names) -> Optional[str]:
        """Best dispatch target, never ``None`` for a non-empty pool.

        Prefers healthy workers by :meth:`rank`; when *every* candidate
        is tripped, the least-recently-tripped one is returned as a
        half-open probe (counted in ``probes``) so the pool can recover
        instead of deadlocking.
        """
        names = list(names)
        if not names:
            return None
        ranked = self.rank(names)
        best = ranked[0]
        if self.is_tripped(best):
            best = min(
                names,
                key=lambda name: (self._state(name)["tripped_at"], name),
            )
            self.probes += 1
        return best

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe per-worker health report (for service ``stats``)."""
        workers = {}
        for name in sorted(self._workers):
            state = self._workers[name]
            workers[name] = {
                "dispatches": state["dispatches"],
                "successes": state["successes"],
                "failures": state["failures"],
                "consecutive_failures": state["consecutive_failures"],
                "tripped": self.is_tripped(name),
                "score": round(self.score(name), 4),
            }
        return {
            "tick": self.tick,
            "trips": self.trips,
            "probes": self.probes,
            "workers": workers,
        }


class RunJournal:
    """Append-only JSONL journal of one grid run (parent-side only).

    Every event is flushed as soon as it is written, so the journal is
    consistent after a crash or KeyboardInterrupt at any point: a task
    either has a ``task_finished``/``task_failed`` record or it does
    not, and resume re-executes exactly the tasks that do not.
    """

    def __init__(self, path: Path, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self._handle = None

    @classmethod
    def create(
        cls,
        run_id: Optional[str] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> Optional["RunJournal"]:
        """Open a new journal, or None when persistence is disabled."""
        root = journal_root()
        if root is None:
            return None
        run_id = run_id or new_run_id()
        root.mkdir(parents=True, exist_ok=True)
        journal = cls(root / ("%s.jsonl" % run_id), run_id)
        header = {
            "event": "run_started",
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
        }
        header.update(meta or {})
        journal._emit(header)
        return journal

    def _emit(self, payload: Dict[str, object]) -> None:
        payload.setdefault("ts", round(time.time(), 3))
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    # -- events ----------------------------------------------------------

    def task_started(self, task, attempt: int) -> None:
        record = {"event": "task_started", "attempt": attempt}
        record.update(task.to_dict())
        self._emit(record)

    def task_finished(
        self,
        task,
        store_key: Optional[str],
        cache_hit: bool,
        resumed: bool,
        wall: float,
        worker: Optional[int],
        attempts: int,
    ) -> None:
        record = {
            "event": "task_finished",
            "store_key": store_key,
            "cache_hit": cache_hit,
            "resumed": resumed,
            "wall_s": round(wall, 4),
            "worker": worker,
            "attempts": attempts,
        }
        record.update(task.to_dict())
        self._emit(record)

    def task_failed(
        self,
        task,
        error: str,
        traceback_text: Optional[str],
        attempts: int,
    ) -> None:
        record = {
            "event": "task_failed",
            "error": error,
            "traceback": traceback_text,
            "attempts": attempts,
        }
        record.update(task.to_dict())
        self._emit(record)

    def run_finished(
        self, completed: int, failed: int, interrupted: bool = False
    ) -> None:
        self._emit({
            "event": "run_finished",
            "completed": completed,
            "failed": failed,
            "interrupted": interrupted,
        })
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class JournalState:
    """Parsed journal of a past run, ready for ``--resume``."""

    run_id: str
    meta: Dict[str, object]
    #: store_key -> the task_finished record that produced it.
    completed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failed: List[Dict[str, object]] = field(default_factory=list)
    finished: bool = False
    interrupted: bool = False


def load_journal(run_id: str) -> JournalState:
    """Parse ``<runs dir>/<run_id>.jsonl`` into a :class:`JournalState`.

    Raises ``FileNotFoundError`` (listing known run ids) when the
    journal does not exist.  Torn trailing lines — the run was killed
    mid-write — are ignored; every complete line is kept.
    """
    root = journal_root()
    path = root / ("%s.jsonl" % run_id) if root is not None else None
    if path is None or not path.exists():
        known = ", ".join(sorted(r.run_id for r in list_runs())) or "none"
        raise FileNotFoundError(
            "no journal for run id %r (known runs: %s)" % (run_id, known)
        )
    state = JournalState(run_id=run_id, meta={})
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn trailing write
            event = record.get("event")
            if event == "run_started":
                state.meta = {
                    key: value for key, value in record.items()
                    if key not in ("event", "ts")
                }
            elif event == "task_finished":
                key = record.get("store_key")
                if key:
                    state.completed[key] = record
            elif event == "task_failed":
                state.failed.append(record)
            elif event == "run_finished":
                state.finished = True
                state.interrupted = bool(record.get("interrupted"))
    return state


def list_runs(prefix: str = "run") -> List[JournalState]:
    """Every journal whose id has ``prefix`` (see :func:`new_run_id`),
    newest-id last."""
    root = journal_root()
    if root is None or not root.is_dir():
        return []
    states = []
    for path in sorted(root.glob("%s-*.jsonl" % prefix)):
        try:
            states.append(load_journal(path.stem))
        except (OSError, ValueError):
            continue
    return states


__all__ = [
    "JOURNAL_SCHEMA",
    "JournalState",
    "RunJournal",
    "WorkerHealth",
    "BACKOFF_CAP_S",
    "COOLDOWN",
    "TRIP_THRESHOLD",
    "backoff_delay",
    "journal_root",
    "list_runs",
    "load_journal",
    "new_run_id",
]
