"""Simulation telemetry: metrics and event traces.

``repro.obs`` is the observability layer the rest of the package
reports into.  It has two independent channels, each opt-in and each
zero-cost when off (components hold ``observer = None`` and hot paths
guard with a single ``is not None`` check):

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms.  Fully deterministic: a snapshot is a pure function of
  the simulated work, so serial and parallel runs of the same grid
  merge to bit-identical snapshots.
* **events** (:mod:`repro.obs.events`) — a JSONL narration of miss
  lifecycles, MSHR occupancy, cost quantization, PSEL updates, and
  victim selections, timestamped in simulated cycles.

Each run's snapshot travels on ``SimResult.metrics``; a command's
metrics are :func:`merged_metrics` over the results it returns.

Configuration lives in environment variables so worker processes
(fork or spawn) inherit it without plumbing:

=====================  =============================================
``REPRO_METRICS``      any non-empty value enables metrics
``REPRO_TRACE_EVENTS`` path of the JSONL event file (workers append
                       ``.<pid>``); empty/unset disables
``REPRO_TRACE_VERBOSE`` include full set contents in victim events
=====================  =============================================

:func:`configure` mutates those variables programmatically (the CLIs'
``--metrics-out`` / ``--trace-events`` flags go through it), and
:func:`default_observer` builds the per-run :class:`Observer` the
simulator wires into its components — or returns ``None`` when every
channel is off.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional

from repro.mlp.cost import MAX_COST_Q, bucket_label
from repro.obs.events import (
    NULL_TRACE,
    EventTrace,
    MemoryEventTrace,
    NullEventTrace,
    read_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)

ENV_METRICS = "REPRO_METRICS"
ENV_TRACE = "REPRO_TRACE_EVENTS"
ENV_TRACE_ORIGIN = "REPRO_TRACE_ORIGIN"
ENV_TRACE_VERBOSE = "REPRO_TRACE_VERBOSE"

#: MSHR occupancy histogram bucket upper bounds (entries in flight).
OCCUPANCY_BOUNDS = [1, 2, 4, 8, 16, 24, 32, 64]

_UNSET = object()


# -- configuration -------------------------------------------------------


def metrics_enabled() -> bool:
    return bool(os.environ.get(ENV_METRICS))


def trace_events_path() -> Optional[str]:
    return os.environ.get(ENV_TRACE) or None


def verbose_events() -> bool:
    return bool(os.environ.get(ENV_TRACE_VERBOSE))


def enabled() -> bool:
    """Whether any telemetry channel is on."""
    return bool(metrics_enabled() or trace_events_path())


def configure(
    metrics=_UNSET,
    trace_events=_UNSET,
    verbose=_UNSET,
) -> None:
    """Enable/disable telemetry channels process-wide (and for workers).

    Arguments left at their default are untouched.  ``metrics`` and
    ``verbose`` are booleans; ``trace_events`` is a JSONL path, or a
    falsy value to disable tracing.
    """
    if metrics is not _UNSET:
        _set_flag(ENV_METRICS, bool(metrics))
    if verbose is not _UNSET:
        _set_flag(ENV_TRACE_VERBOSE, bool(verbose))
    if trace_events is not _UNSET:
        if trace_events:
            os.environ[ENV_TRACE] = str(trace_events)
            os.environ[ENV_TRACE_ORIGIN] = str(os.getpid())
        else:
            os.environ.pop(ENV_TRACE, None)
            os.environ.pop(ENV_TRACE_ORIGIN, None)


def _set_flag(name: str, value: bool) -> None:
    if value:
        os.environ[name] = "1"
    else:
        os.environ.pop(name, None)


_event_traces: Dict[str, EventTrace] = {}


def shared_event_trace() -> Optional[EventTrace]:
    """The per-process sink for the configured event path, if any."""
    path = trace_events_path()
    if path is None:
        return None
    trace = _event_traces.get(path)
    if trace is None:
        origin = int(os.environ.get(ENV_TRACE_ORIGIN, os.getpid()))
        trace = _event_traces[path] = EventTrace(path, origin_pid=origin)
    return trace


# -- the per-run observer ------------------------------------------------


class Observer:
    """One simulation run's telemetry bundle.

    Components call the hook methods below; every hook is cheap and
    degrades gracefully when a channel is off.  The simulator creates
    one Observer per run (via :func:`default_observer`) so metric
    snapshots are per-run and attachable to :class:`SimResult`.
    """

    __slots__ = (
        "registry",
        "events",
        "verbose",
        "_evictions",
        "_occupancy",
        "_cost_events",
        "_cost_hist",
        "_psel_moves",
        "_tournament_charges",
        "_queue_full",
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        events=None,
        verbose: bool = False,
    ) -> None:
        self.registry = registry
        self.events = events
        self.verbose = verbose
        if registry is not None:
            self._evictions = registry.counter(
                "cache.evictions", "victims selected, by cache level"
            )
            self._occupancy = registry.histogram(
                "mshr.occupancy",
                OCCUPANCY_BOUNDS,
                "entries in flight at each allocation",
            )
            self._cost_events = registry.counter(
                "mlp.cost_quantized", "misses whose mlp-cost was finalized"
            )
            self._cost_hist = registry.histogram(
                "mlp.cost_q",
                list(range(MAX_COST_Q + 1)),
                "quantized cost written to tags (warm-up included)",
            )
            self._psel_moves = registry.counter(
                "sbar.psel_updates", "PSEL movements, by direction"
            )
            self._tournament_charges = registry.counter(
                "tournament.charges", "cost charged to tournament leaders"
            )
            self._queue_full = registry.counter(
                "memory.queue_full_waits",
                "requests delayed by the outstanding-request limit",
            )
        else:
            self._evictions = None
            self._occupancy = None
            self._cost_events = None
            self._cost_hist = None
            self._psel_moves = None
            self._tournament_charges = None
            self._queue_full = None

    # -- cache hooks -----------------------------------------------------

    def victim_selected(
        self, cache: str, set_index: int, victim, policy_name: str,
        cache_set=None,
    ) -> None:
        if self._evictions is not None:
            self._evictions.inc(cache=cache)
        if self.events is not None:
            fields = {
                "cache": cache,
                "set": set_index,
                "block": victim.block,
                "cost_q": victim.cost_q,
                "dirty": victim.dirty,
                "policy": policy_name,
            }
            if self.verbose and cache_set is not None:
                fields["ways"] = cache_set.snapshot()
            self.events.emit("victim_selected", **fields)

    # -- MSHR hooks ------------------------------------------------------

    def miss_start(
        self, block: int, issue: float, complete: float,
        is_demand: bool, occupancy: int,
    ) -> None:
        if self._occupancy is not None:
            self._occupancy.observe(occupancy)
        if self.events is not None:
            self.events.emit(
                "miss_start",
                block=block,
                issue=issue,
                complete=complete,
                demand=is_demand,
                occupancy=occupancy,
            )

    def miss_finish(
        self, block: int, complete: float, cost: float, outstanding: int
    ) -> None:
        if self.events is not None:
            self.events.emit(
                "miss_finish",
                block=block,
                complete=complete,
                cost=round(cost, 6),
                outstanding=outstanding,
            )

    # -- cost / PSEL hooks -----------------------------------------------

    def cost_quantized(self, block: int, cost: float, cost_q: int) -> None:
        if self._cost_events is not None:
            self._cost_events.inc()
            self._cost_hist.observe(cost_q)
        if self.events is not None:
            self.events.emit(
                "cost_quantized",
                block=block,
                cost=round(cost, 6),
                cost_q=cost_q,
                bucket=bucket_label(cost_q),
            )

    def psel_update(
        self, label: str, direction: str, amount: int, value: int
    ) -> None:
        if self._psel_moves is not None:
            self._psel_moves.inc(direction=direction, psel=label)
        if self.events is not None:
            self.events.emit(
                "psel_update",
                psel=label,
                direction=direction,
                amount=amount,
                value=value,
            )

    def tournament_update(self, policy_name: str, cost_q: int) -> None:
        if self._tournament_charges is not None:
            self._tournament_charges.inc(policy=policy_name)
        if self.events is not None:
            self.events.emit(
                "tournament_charge", policy=policy_name, cost_q=cost_q
            )

    # -- memory hooks ----------------------------------------------------

    def memory_queue_full(self, until: float) -> None:
        if self._queue_full is not None:
            self._queue_full.inc()
        if self.events is not None:
            self.events.emit("memory_queue_full", until=until)

    # -- end of run ------------------------------------------------------

    def finalize_run(self, simulator, result) -> Optional[Dict[str, object]]:
        """Fold the run's component counters into the registry.

        Called once by ``Simulator._finalize``.  Returns the metric
        snapshot to attach to the :class:`SimResult` (or ``None`` when
        metrics are off).

        Counter semantics: ``sim.*`` values are warm-up-adjusted like
        the SimResult; ``cache.* / mshr.* / memory.*`` are raw
        whole-run component counters.
        """
        snapshot = None
        registry = self.registry
        if registry is not None:
            counter = registry.counter
            counter("sim.runs").inc()
            counter("sim.instructions").inc(result.instructions)
            counter("sim.cycles").inc(result.cycles)
            counter("sim.demand_misses").inc(result.demand_misses)
            counter("sim.compulsory_misses").inc(result.compulsory_misses)
            for label, cache in (
                ("l1i", simulator.l1i),
                ("l1d", simulator.l1d),
                ("l2", simulator.l2),
            ):
                counter("cache.accesses").inc(cache.accesses, cache=label)
                counter("cache.hits").inc(cache.hits, cache=label)
                counter("cache.misses").inc(cache.misses, cache=label)
                counter("cache.writebacks").inc(cache.writebacks, cache=label)
            window = simulator.window
            counter("window.stall_events").inc(window.stall_events)
            counter("window.long_stalls").inc(window.long_stalls)
            counter("window.stall_cycles").inc(window.stall_cycles)
            mshr = simulator.mshr
            counter("mshr.allocations").inc(mshr.allocations)
            counter("mshr.merges").inc(mshr.merges)
            counter("mshr.full_stalls").inc(mshr.full_stalls)
            registry.gauge(
                "mshr.peak_occupancy", "most entries ever in flight"
            ).set(mshr.peak_occupancy)
            memory = simulator.memory
            counter("memory.requests").inc(memory.requests)
            counter("memory.writebacks").inc(memory.writebacks)
            counter("memory.queueing_stalls").inc(memory.queueing_stalls)
            counter("memory.bank_conflicts").inc(memory.banks.conflicts)
            counter("memory.bus_contended").inc(memory.bus.contended)
            registry.gauge(
                "memory.peak_in_flight", "most outstanding memory requests"
            ).set(memory.peak_in_flight)
            snapshot = registry.snapshot()
        if self.events is not None:
            self.events.emit(
                "run_finished",
                policy=result.policy_name,
                instructions=result.instructions,
                cycles=result.cycles,
                demand_misses=result.demand_misses,
            )
            self.events.flush()
        return snapshot


def default_observer() -> Optional[Observer]:
    """Build an Observer per the environment, or None when all off."""
    if not enabled():
        return None
    return Observer(
        registry=MetricsRegistry() if metrics_enabled() else None,
        events=shared_event_trace(),
        verbose=verbose_events(),
    )


def merged_metrics(results: Iterable) -> Optional[Dict[str, object]]:
    """The merge of the ``metrics`` snapshots of ``results``, or None.

    The metrics of a command are this merge over the results it
    returns, however they were produced: fresh, from the memo or the
    store, in this process or on a slot.  Results simulated with
    metrics off carry no snapshot and are skipped.  Snapshots merge in
    a canonical order, so float sums cannot depend on the order the
    results arrive in.
    """
    snapshots = sorted(
        (result.metrics for result in results if result.metrics is not None),
        key=lambda snapshot: json.dumps(snapshot, sort_keys=True),
    )
    if not snapshots:
        return None
    return merge_snapshots(snapshots)


__all__ = [
    "Observer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "merged_metrics",
    "EventTrace",
    "MemoryEventTrace",
    "NullEventTrace",
    "NULL_TRACE",
    "read_events",
    "configure",
    "default_observer",
    "enabled",
    "metrics_enabled",
    "trace_events_path",
    "shared_event_trace",
    "OCCUPANCY_BOUNDS",
]
