"""Simulation telemetry: metrics and event traces.

``repro.obs`` is the observability layer the rest of the package
reports into.  It has two independent channels, each opt-in:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms, every one read from an end-of-run counter that the
  generic loop and the native kernel both keep, so a metrics run stays
  on the kernel.  Fully deterministic: a snapshot is a pure function
  of the simulated work, so serial and parallel runs of the same grid
  merge to bit-identical snapshots.
* **events** (:mod:`repro.obs.events`) — a JSONL narration of miss
  lifecycles, MSHR occupancy, cost quantization, PSEL updates, and
  victim selections, timestamped in simulated cycles.  Components
  hold ``observer = None`` unless tracing is on, and hot paths guard
  with a single ``is not None`` check; a traced run takes the generic
  loop, which is the one that calls the hooks.

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
``--metrics-out`` / ``--trace-events`` flags go through it).  A
:class:`~repro.sim.simulator.Simulator` reads :func:`metrics_enabled`
when it is built, and :func:`default_observer` builds the per-run
event :class:`Observer` it wires into its components — or returns
``None`` when tracing is off.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional

from repro.mlp.cost import bucket_label
from repro.obs.events import (
    NULL_TRACE,
    EventTrace,
    MemoryEventTrace,
    NullEventTrace,
    read_events,
)
from repro.obs.metrics import merge_snapshots, run_snapshot

ENV_METRICS = "REPRO_METRICS"
ENV_TRACE = "REPRO_TRACE_EVENTS"
ENV_TRACE_ORIGIN = "REPRO_TRACE_ORIGIN"
ENV_TRACE_VERBOSE = "REPRO_TRACE_VERBOSE"

_UNSET = object()


# -- configuration -------------------------------------------------------


def metrics_enabled() -> bool:
    return bool(os.environ.get(ENV_METRICS))


def trace_events_path() -> Optional[str]:
    return os.environ.get(ENV_TRACE) or None


def verbose_events() -> bool:
    return bool(os.environ.get(ENV_TRACE_VERBOSE))


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
    """One simulation run's event sink.

    Components call the hook methods below, which narrate the run into
    ``events``.  The simulator builds one per run (via
    :func:`default_observer`) only when event tracing is on; metrics
    need none, as every metric is an end-of-run counter the components
    keep (see :func:`repro.obs.metrics.run_snapshot`).
    """

    __slots__ = ("events", "verbose")

    def __init__(self, events, verbose: bool = False) -> None:
        self.events = events
        self.verbose = verbose

    # -- cache hooks -----------------------------------------------------

    def victim_selected(
        self, cache: str, set_index: int, victim, policy_name: str,
        cache_set=None,
    ) -> None:
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
        self.events.emit(
            "miss_finish",
            block=block,
            complete=complete,
            cost=round(cost, 6),
            outstanding=outstanding,
        )

    # -- cost / PSEL hooks -----------------------------------------------

    def cost_quantized(self, block: int, cost: float, cost_q: int) -> None:
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
        self.events.emit(
            "psel_update",
            psel=label,
            direction=direction,
            amount=amount,
            value=value,
        )

    def tournament_update(self, policy_name: str, cost_q: int) -> None:
        self.events.emit(
            "tournament_charge", policy=policy_name, cost_q=cost_q
        )

    # -- memory hooks ----------------------------------------------------

    def memory_queue_full(self, until: float) -> None:
        self.events.emit("memory_queue_full", until=until)

    # -- end of run ------------------------------------------------------

    def finalize_run(self, result) -> None:
        """Close the run's narration; called once by the simulator."""
        self.events.emit(
            "run_finished",
            policy=result.policy_name,
            instructions=result.instructions,
            cycles=result.cycles,
            demand_misses=result.demand_misses,
        )
        self.events.flush()


def default_observer() -> Optional[Observer]:
    """The event Observer per the environment, or None when tracing is
    off."""
    events = shared_event_trace()
    if events is None:
        return None
    return Observer(events=events, verbose=verbose_events())


def merged_metrics(results: Iterable) -> Optional[Dict[str, object]]:
    """The merge of the ``metrics`` snapshots of ``results``, or None.

    The metrics of a command are this merge over the results it
    returns, however they were produced: fresh or from the store, in
    this process or on a slot.  Results simulated with
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
    "merge_snapshots",
    "run_snapshot",
    "merged_metrics",
    "EventTrace",
    "MemoryEventTrace",
    "NullEventTrace",
    "NULL_TRACE",
    "read_events",
    "configure",
    "default_observer",
    "metrics_enabled",
    "trace_events_path",
    "shared_event_trace",
]
