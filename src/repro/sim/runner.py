"""Shared experiment runner: memo + persistent store in front of the sim.

Most figures reuse the same (benchmark, policy) simulations — Figure 4
needs LIN(1..4) and LRU, Figure 9 reuses LRU and LIN(4) and adds SBAR —
so :func:`run_policy` is a two-level cache in front of
:class:`~repro.sim.simulator.Simulator`:

1. an in-process memo (free repeat lookups within one process), and
2. the persistent :mod:`repro.sim.store` (free repeat runs across
   processes, worker pools, and sessions).

Both levels key on the full (benchmark, policy-spec, scale, config,
phase-interval, prefetch-degree) cell; the store additionally keys on
code version so it can never serve stale results.  A cell without a
prefetcher keys exactly as it did before the prefetcher joined the
cell.  ``use_cache=False`` bypasses both.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Tuple

from repro import obs
from repro.config import MachineConfig
from repro.cpu.prefetch import prefetcher_for
from repro.sim.options import RunOptions
from repro.sim.simulator import Simulator
from repro.sim.stats import SimResult
from repro.trace.packed import PackedTrace

_UNSET = object()

_CACHE: Dict[Tuple, SimResult] = {}

#: Per-process memo of built (and packed) workload traces, keyed on
#: (canonical workload spec, scale).  Synthesizing a macro trace costs
#: ~100ms and grid fan-out used to pay it once per *task*; with the
#: memo each worker process builds each workload at most once (workers
#: inherit this module, so :mod:`repro.sim.parallel` gets the benefit
#: for free).  Keying on the *canonical spec* — not the given spelling
#: — means ``" MCF "`` and ``"mcf"`` share an entry while distinct
#: specs (``"mcf"`` vs ``"interleave(mcf,art)"``) can never alias.
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


def _memo_key(
    benchmark,
    policy_spec: str,
    scale: float,
    config: Optional[MachineConfig],
    phase_interval: Optional[int],
    prefetch_degree: Optional[int] = None,
) -> Tuple:
    from repro.workloads import canonical_workload_spec

    # Metrics enablement is part of the key: a result computed with
    # telemetry off has no metrics snapshot to serve once it's on.
    # The workload canonicalizes like the policy spec does, so two
    # spellings of one spec share an entry and two specs never alias.
    key = (canonical_workload_spec(benchmark),
           policy_spec.strip().lower(), scale, config,
           phase_interval, obs.metrics_enabled())
    if prefetch_degree is not None:
        key += (("prefetch_degree", prefetch_degree),)
    return key


def run_policy(
    benchmark,
    policy_spec: str,
    scale: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    phase_interval: Optional[int] = None,
    use_cache=_UNSET,
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
    ``prefetch_degree`` attaches a default
    :class:`~repro.cpu.prefetch.StridePrefetcher` of that degree; like
    ``phase_interval`` it changes what is simulated, so it is part of
    the cell's keys.  Results come from the in-process memo, then the
    persistent store, then a fresh simulation;
    ``RunOptions(use_cache=False)`` forces the simulation and skips both
    caches.  The bare ``use_cache`` keyword is a deprecated shim for
    ``options=RunOptions(use_cache=...)``.
    """
    from repro import workloads  # deferred: workloads import the sim layer
    from repro.sim.store import default_store, store_key

    if use_cache is _UNSET:
        use_cache = options.use_cache if options is not None else True
    else:
        if options is not None:
            raise TypeError(
                "run_policy: pass options=RunOptions(...) or use_cache, "
                "not both"
            )
        warnings.warn(
            "run_policy(use_cache=...) is deprecated; pass "
            "options=repro.sim.RunOptions(use_cache=...)",
            DeprecationWarning,
            stacklevel=2,
        )
    if scale is None:
        scale = trace_scale()
    key = _memo_key(benchmark, policy_spec, scale, config, phase_interval,
                    prefetch_degree)
    if use_cache and key in _CACHE:
        _MEMO_HITS["memo_hits"] += 1
        return _CACHE[key]

    resolved_config = config if config is not None else (
        workloads.experiment_config()
    )
    store = default_store() if use_cache else None
    persistent_key = None
    if store is not None:
        persistent_key = store_key(
            benchmark, policy_spec, scale, resolved_config, phase_interval,
            prefetch_degree,
        )
        result = store.load(persistent_key)
        if result is not None:
            _CACHE[key] = result
            return result

    trace = packed_trace(benchmark, scale=scale)
    simulator = Simulator(
        resolved_config,
        policy_spec,
        phase_interval=phase_interval,
        prefetcher=prefetcher_for(prefetch_degree),
        kernel=options.kernel if options is not None else "auto",
    )
    result = simulator.run(trace)
    _MEMO_HITS["simulations"] += 1
    if store is not None:
        key_fields = {}
        if prefetch_degree is not None:
            key_fields["prefetch_degree"] = prefetch_degree
        store.save(
            persistent_key,
            result,
            workload=key[0],  # canonical spec (JSON-safe)
            policy_spec=policy_spec,
            scale=scale,
            phase_interval=phase_interval,
            **key_fields,
        )
    if use_cache:
        _CACHE[key] = result
    return result


def seed_cache(
    benchmark: str,
    policy_spec: str,
    scale: float,
    result: SimResult,
    config: Optional[MachineConfig] = None,
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
) -> None:
    """Install a result into the in-process memo.

    The parallel engine uses this so results computed by workers are
    free for subsequent :func:`run_policy` calls in the parent.
    """
    _CACHE[_memo_key(benchmark, policy_spec, scale, config,
                     phase_interval, prefetch_degree)] = result


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
