"""The simulation cell, and the two-level cache in front of the sim.

A :class:`Task` is one cell: one workload under one policy at one
scale, plus the optional fields that change what is simulated.  It is
the only list of those fields.  The memo key, the store key
(:func:`repro.sim.store.store_key`), the journal and report record
(:meth:`Task.to_dict`), the label (:func:`cell_label`) and the
:class:`~repro.sim.simulator.Simulator` (:meth:`Task.simulator`) all
derive from it, so a new field reaches each of them by being declared
on :class:`Task`.

Most figures reuse the same (benchmark, policy) simulations — Figure 4
needs LIN(1..4) and LRU, Figure 9 reuses LRU and LIN(4) and adds SBAR —
so :func:`run_task` (and :func:`run_policy`, its keyword front end) is
a two-level cache in front of the simulator:

1. an in-process memo (free repeat lookups within one process), keyed
   by the task's canonical form and the metrics flag, and
2. the persistent :mod:`repro.sim.store` (free repeat runs across
   processes, worker pools, and sessions), which additionally keys on
   code version so it can never serve stale results.

:func:`lookup` is the one probe of both levels; the grid calls it too.
:func:`simulate` is what runs behind a miss, in process or in a grid
slot.  ``RunOptions(use_cache=False)`` bypasses both levels.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.config import MachineConfig
from repro.cpu.prefetch import prefetcher_for
from repro.sim.options import RunOptions
from repro.sim.simulator import Simulator
from repro.sim.stats import SimResult
from repro.trace.packed import PackedTrace


@dataclass(frozen=True)
class Task:
    """One cell of the simulation grid.

    ``benchmark`` is a workload spec (or a ready
    :class:`~repro.workloads.Workload`) and ``policy_spec`` a policy
    spec.  Every field after ``scale`` is optional and changes what is
    simulated; None leaves the cell plain.  Each one's ``tag`` metadata
    names it in the label (default: the field name).
    """

    benchmark: str
    policy_spec: str
    scale: float
    #: The machine; None means :func:`repro.workloads.experiment_config`.
    config: Optional[MachineConfig] = None
    #: Instructions per phase sample (Figure 11's bookkeeping).
    phase_interval: Optional[int] = field(
        default=None, metadata={"tag": "phase"}
    )
    #: Degree of a default :class:`~repro.cpu.prefetch.StridePrefetcher`.
    prefetch_degree: Optional[int] = field(
        default=None, metadata={"tag": "prefetch"}
    )

    def modifiers(self) -> Dict[str, object]:
        """The optional fields this cell sets, by name, in field order."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.default is None and getattr(self, spec.name) is not None
        }

    @property
    def label(self) -> str:
        return cell_label(self)

    def to_dict(self) -> Dict[str, object]:
        """The JSON-safe record of this cell.

        Journal lines, task reports and store entries carry it.
        ``phase_interval`` is always present (null when unset); every
        other optional field appears only when set.
        """
        payload: Dict[str, object] = {
            "benchmark": self.benchmark,
            "policy": self.policy_spec,
            "scale": self.scale,
            "phase_interval": self.phase_interval,
        }
        for name, value in self.modifiers().items():
            payload[name] = asdict(value) if is_dataclass(value) else value
        return payload

    def canonical(self) -> "Task":
        """This cell with both specs spelled canonically.

        Two spellings of one spec share a canonical task; two specs
        never do.  With the metrics flag it keys the memo.
        """
        from repro.workloads import canonical_workload_spec

        return replace(
            self,
            benchmark=canonical_workload_spec(self.benchmark),
            policy_spec=self.policy_spec.strip().lower(),
        )

    def machine(self) -> MachineConfig:
        """``config``, or the experiment machine when it is unset."""
        if self.config is not None:
            return self.config
        from repro.workloads import experiment_config

        return experiment_config()

    def simulator(self) -> Simulator:
        """A fresh :class:`Simulator` for this cell."""
        return Simulator(
            self.machine(),
            self.policy_spec,
            phase_interval=self.phase_interval,
            prefetcher=prefetcher_for(self.prefetch_degree),
        )


def cell_label(task: Task) -> str:
    """``benchmark/policy``, then ``@tag=value`` per set field.

    It names a cell in progress lines, chaos decisions, service events
    and bench output; a machine config shows as a short digest.
    """
    tags = {
        spec.name: spec.metadata.get("tag", spec.name)
        for spec in fields(task)
    }
    label = "%s/%s" % (task.benchmark, task.policy_spec)
    for name, value in task.modifiers().items():
        if is_dataclass(value):
            blob = json.dumps(asdict(value), sort_keys=True)
            value = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]
        label += "@%s=%s" % (tags[name], value)
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
        payload = self.task.to_dict()
        payload.update(
            ok=self.ok,
            cache_hit=self.cache_hit,
            resumed=self.resumed,
            wall_time_s=round(self.wall_time, 4),
            worker=self.worker,
            attempts=self.attempts,
            error=self.error,
        )
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
    #: Wall seconds the grid's executions took, each execution once
    #: however many tasks shared it.
    busy: float = 0.0
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
        """Simulated seconds per wall second per worker (0..1-ish);
        a grid run in this process counts as one worker."""
        if self.elapsed <= 0:
            return 0.0
        return self.busy / (self.elapsed * max(self.workers, 1))

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


_CACHE: Dict[Tuple[Task, bool], SimResult] = {}

#: Per-process memo of built (and packed) workload traces, keyed on
#: (canonical workload spec, scale).  Synthesizing a macro trace costs
#: ~100ms; with the memo each worker process builds each workload at
#: most once, not once per task (workers inherit this module, so
#: :mod:`repro.sim.parallel` gets the benefit for free).  Keying on
#: the *canonical spec* — not the given spelling — means ``" MCF "``
#: and ``"mcf"`` share an entry while distinct specs (``"mcf"`` vs
#: ``"interleave(mcf,art)"``) can never alias.
#: Packed columns are ~10x smaller than Access lists, which is what
#: makes caching several workloads at once affordable.
_TRACE_CACHE: Dict[Tuple[str, float], PackedTrace] = {}

#: Traces kept resident per process; oldest-inserted evicted beyond this.
TRACE_CACHE_MAX = 8

#: In-process memo counters, surfaced by :func:`cache_stats`.
_MEMO_HITS = {"memo_hits": 0, "simulations": 0,
              "trace_builds": 0, "trace_memo_hits": 0}


def trace_scale() -> float:
    """Global trace-length multiplier, settable via REPRO_SCALE.

    Benchmarks default to 1.0; set e.g. ``REPRO_SCALE=4`` for longer,
    more converged runs, or ``0.25`` for a quick smoke pass.
    """
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def packed_trace(benchmark, scale: Optional[float] = None) -> PackedTrace:
    """The packed trace for one workload spec, memoized per process.

    ``benchmark`` is any registry workload spec (a surrogate name, an
    imported trace, a composition — see
    :func:`repro.workloads.parse_workload_spec`) or a ready
    :class:`~repro.workloads.Workload`.  Each (canonical spec, scale)
    pair is built at most :data:`TRACE_CACHE_MAX`-bounded once per
    process.  Builds are deterministic, so the memo can never serve a
    stale trace.
    """
    from repro.workloads import parse_workload_spec

    workload = parse_workload_spec(benchmark)
    if scale is None:
        scale = trace_scale()
    key = (workload.canonical, scale)
    packed = _TRACE_CACHE.get(key)
    if packed is None:
        packed = workload.build(scale)
        if len(_TRACE_CACHE) >= TRACE_CACHE_MAX:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        _TRACE_CACHE[key] = packed
        _MEMO_HITS["trace_builds"] += 1
    else:
        _MEMO_HITS["trace_memo_hits"] += 1
    return packed


def lookup(
    task: Task, key: Optional[str] = None
) -> Tuple[Optional[SimResult], Optional[str], Optional[str]]:
    """Probe the memo, then the store, without simulating.

    Returns ``(result, source, key)``.  ``source`` is ``"memo"``,
    ``"store"``, or None on a miss.  ``key`` is the task's store key:
    the one passed in, else computed only once the memo misses, and
    None when the memo hit first or persistence is off.  A store entry
    that fails its integrity check is quarantined and reads as a miss.
    """
    from repro.sim.store import default_store, store_key

    memo_key = (task.canonical(), obs.metrics_enabled())
    result = _CACHE.get(memo_key)
    if result is not None:
        _MEMO_HITS["memo_hits"] += 1
        return result, "memo", key
    store = default_store()
    if store is None:
        return None, None, None
    if key is None:
        key = store_key(task)
    result = store.load(key)
    if result is not None:
        _CACHE[memo_key] = result
        return result, "store", key
    return None, None, key


def run_task(task: Task, options: Optional[RunOptions] = None) -> SimResult:
    """Simulate one cell, or serve it from the memo or the store.

    ``options.use_cache=False`` forces the simulation and skips both
    caches.
    """
    if options is None:
        options = RunOptions()
    key = None
    if options.use_cache:
        result, _, key = lookup(task)
        if result is not None:
            return result
    result = simulate(task, key)
    if options.use_cache:
        seed_cache(task, result)
    return result


def simulate(task: Task, key: Optional[str] = None) -> SimResult:
    """Simulate one cell, and save the result under store ``key``.

    No cache is probed: :func:`run_task` calls this after its own
    :func:`lookup` misses, and a grid slot after the parent's probe
    missed (:func:`repro.sim.parallel.execute_cell`).  ``key`` None,
    or persistence off, saves nothing.
    """
    from repro.sim.store import default_store

    trace = packed_trace(task.benchmark, scale=task.scale)
    result = task.simulator().run(trace)
    _MEMO_HITS["simulations"] += 1
    store = default_store() if key is not None else None
    if store is not None:
        store.save(key, result, **task.canonical().to_dict())
    return result


def run_policy(
    benchmark,
    policy_spec: str,
    scale: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    phase_interval: Optional[int] = None,
    options: Optional[RunOptions] = None,
    prefetch_degree: Optional[int] = None,
) -> SimResult:
    """Simulate one workload under one policy.

    ``benchmark`` is any workload spec — a surrogate name (``"mcf"``),
    an imported trace (``"champsim:/path.xz"``), or a composition
    (``"interleave(mcf,art)"``); see
    :func:`repro.workloads.parse_workload_spec`.  ``policy_spec`` is a
    policy registry spec string (see
    :func:`repro.cache.replacement.registry.parse_policy_spec`).
    ``scale`` defaults to :func:`trace_scale`.  ``prefetch_degree``
    attaches a default :class:`~repro.cpu.prefetch.StridePrefetcher`
    of that degree; like ``phase_interval`` it is a :class:`Task`
    field, so it is part of the cell's keys.  This builds the task and
    hands it to :func:`run_task`.
    """
    return run_task(
        Task(
            benchmark, policy_spec,
            trace_scale() if scale is None else scale,
            config, phase_interval, prefetch_degree,
        ),
        options,
    )


def seed_cache(task: Task, result: SimResult) -> None:
    """Install a result into the in-process memo.

    The parallel engine uses this so results computed by workers are
    free for subsequent :func:`run_policy` calls in the parent.
    """
    _CACHE[(task.canonical(), obs.metrics_enabled())] = result


def ipc_improvement(result: SimResult, baseline: SimResult) -> float:
    """Percent IPC improvement over a baseline run (the figures' y-axis)."""
    if baseline.ipc <= 0:
        return 0.0
    return 100.0 * (result.ipc - baseline.ipc) / baseline.ipc


def miss_change(result: SimResult, baseline: SimResult) -> float:
    """Percent change in demand misses relative to a baseline run."""
    if baseline.demand_misses == 0:
        return 0.0
    return (
        100.0
        * (result.demand_misses - baseline.demand_misses)
        / baseline.demand_misses
    )


def cache_stats() -> Dict[str, int]:
    """Counters for both cache levels (memo + persistent store)."""
    from repro.sim.store import default_store

    stats = dict(_MEMO_HITS)
    store = default_store()
    stats.update(
        store.counters() if store is not None
        else {"store_hits": 0, "store_misses": 0, "store_quarantined": 0}
    )
    return stats


def clear_cache() -> None:
    """Drop memoized results and traces (tests use this for isolation)."""
    _CACHE.clear()
    _TRACE_CACHE.clear()
