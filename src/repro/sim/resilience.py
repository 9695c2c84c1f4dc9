"""Fault-tolerant execution primitives for the cell scheduler.

Two pieces, both deterministic and both testable under the seeded
chaos harness (:mod:`repro.sim.chaos`):

* :func:`backoff_delay` — exponential backoff with *deterministic*
  jitter.  Retried tasks wait ``base * 2**(attempt-1)`` seconds scaled
  by a jitter factor derived from ``sha256(seed, task label,
  attempt)``, so two runs of the same grid retry on the same schedule
  (no wall-clock or RNG state leaks into behavior) while distinct
  tasks still de-synchronize.

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

#: First wait between two attempts of one task, in seconds; each
#: further retry doubles it, up to :data:`BACKOFF_CAP_S`.
BACKOFF_BASE_S = 0.05

#: Longest wait between two attempts of one task, in seconds.
BACKOFF_CAP_S = 2.0


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
    "BACKOFF_BASE_S",
    "BACKOFF_CAP_S",
    "backoff_delay",
    "journal_root",
    "list_runs",
    "load_journal",
    "new_run_id",
]
