"""Metric snapshots: one per run, built at its end, and their merge.

A snapshot is the deterministic half of the observability layer:
every value is a pure function of the simulated work (wall-clock
timing lives in ``SimResult.meta["stage_s"]``), so two runs of the
same simulation — serial or fanned out across a worker pool, on the
native kernel or the generic loop — produce bit-identical snapshots,
and snapshots merge by simple arithmetic:

* **counters** sum,
* **gauges** combine according to their declared aggregation
  (``max``/``min``/``sum``),
* **histograms** add their per-bucket counts (bucket bounds must
  match).

Each value is keyed by its labels, serialized as a sorted ``k=v``
string (``"cache=l2"``; ``""`` for none) so snapshots are JSON-safe
and deterministic.  :func:`run_snapshot` reads every metric off
counters the machine's components keep, which both replay loops
maintain, so no metric needs a hook in the loop.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.mlp.cost import MAX_COST_Q
from repro.mlp.mshr import OCCUPANCY_BOUNDS

#: Gauge aggregation modes understood by :func:`merge_snapshots`.
GAUGE_AGGREGATIONS = ("max", "min", "sum")


def _label_key(labels: Dict[str, object]) -> str:
    """``{"cache": "l2", "kind": "rd"}`` → ``"cache=l2,kind=rd"`` (sorted)."""
    return ",".join("%s=%s" % (key, labels[key]) for key in sorted(labels))


def run_snapshot(sim, result) -> Dict[str, object]:
    """The metric snapshot of one finished run of ``sim``.

    ``sim.*`` values are warm-up-adjusted like the
    :class:`~repro.sim.stats.SimResult`; the other counters are raw
    whole-run component counters.  The end-of-run counters are present
    at zero, while the event counts (evictions, MSHR occupancy, cost
    quantizations, PSEL updates, tournament charges, queue-full waits)
    appear only once they are nonzero.
    """
    from repro.sbar.tournament import TournamentController

    window = sim.window
    mshr = sim.mshr
    memory = sim.memory
    caches = (("l1i", sim.l1i), ("l1d", sim.l1d), ("l2", sim.l2))
    counters: Dict[str, Dict[str, object]] = {
        "sim.runs": {"": 1},
        "sim.instructions": {"": result.instructions},
        "sim.cycles": {"": result.cycles},
        "sim.demand_misses": {"": result.demand_misses},
        "sim.compulsory_misses": {"": result.compulsory_misses},
        "window.stall_events": {"": window.stall_events},
        "window.long_stalls": {"": window.long_stalls},
        "window.stall_cycles": {"": window.stall_cycles},
        "mshr.allocations": {"": mshr.allocations},
        "mshr.merges": {"": mshr.merges},
        "mshr.full_stalls": {"": mshr.full_stalls},
        "memory.requests": {"": memory.requests},
        "memory.writebacks": {"": memory.writebacks},
        "memory.queueing_stalls": {"": memory.queueing_stalls},
        "memory.bank_conflicts": {"": memory.banks.conflicts},
        "memory.bus_contended": {"": memory.bus.contended},
    }
    for name in ("accesses", "hits", "misses", "writebacks"):
        counters["cache." + name] = {
            _label_key({"cache": label}): getattr(cache, name)
            for label, cache in caches
        }
    events = {
        "cache.evictions": {
            _label_key({"cache": label}): cache.evictions
            for label, cache in caches
        },
        "memory.queue_full_waits": {"": memory.queueing_stalls},
        "sbar.psel_updates": {},
        "tournament.charges": {},
    }
    for psel in sim.psels():
        events["sbar.psel_updates"].update({
            _label_key({"direction": "inc", "psel": psel.label}):
                psel.increment_calls,
            _label_key({"direction": "dec", "psel": psel.label}):
                psel.decrement_calls,
        })
    controller = sim.controller
    if isinstance(controller, TournamentController):
        charges = events["tournament.charges"]
        for policy, count in zip(controller.policies, controller.charges):
            key = _label_key({"policy": policy.name})
            charges[key] = charges.get(key, 0) + count
    cost_q = [
        measured + warmup
        for measured, warmup in zip(
            sim.cost_distribution.counts, sim.warmup_cost_q
        )
    ] + [0]
    events["mlp.cost_quantized"] = {"": sum(cost_q)}
    for name, values in events.items():
        values = {key: count for key, count in values.items() if count}
        if values:
            counters[name] = values
    histograms = {}
    for name, bounds, counts in (
        ("mshr.occupancy", OCCUPANCY_BOUNDS, mshr.occupancy_counts),
        ("mlp.cost_q", range(MAX_COST_Q + 1), cost_q),
    ):
        if any(counts):
            histograms[name] = {
                "bounds": list(bounds), "values": {"": list(counts)}
            }
    gauges = {
        "mshr.peak_occupancy": mshr.peak_occupancy,
        "memory.peak_in_flight": memory.peak_in_flight,
    }
    return {
        "counters": {
            name: _sorted_values(counters[name]) for name in sorted(counters)
        },
        "gauges": {
            name: {"agg": "max", "values": {"": gauges[name]}}
            for name in sorted(gauges)
        },
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


def _fold(agg: str, current: float, incoming: float) -> float:
    if agg == "max":
        return current if current >= incoming else incoming
    if agg == "min":
        return current if current <= incoming else incoming
    return current + incoming  # "sum"


def merge_snapshots(
    snapshots: Iterable[Dict[str, object]],
) -> Dict[str, object]:
    """Combine snapshots into one; commutative except for nothing.

    Counters and histogram buckets sum; gauges fold by their recorded
    aggregation.  The result is independent of input order, which is
    what lets the parallel engine merge per-worker snapshots in any
    deterministic order and match the serial run exactly.
    """
    counters: Dict[str, Dict[str, float]] = {}
    gauges: Dict[str, Dict[str, object]] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, values in snapshot.get("counters", {}).items():
            into = counters.setdefault(name, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
        for name, payload in snapshot.get("gauges", {}).items():
            agg = payload["agg"]
            if agg not in GAUGE_AGGREGATIONS:
                raise ValueError(
                    "gauge %r has unknown aggregation %r" % (name, agg)
                )
            into = gauges.setdefault(name, {"agg": agg, "values": {}})
            if into["agg"] != agg:
                raise ValueError(
                    "gauge %r merged with conflicting aggregations" % name
                )
            for key, value in payload["values"].items():
                current = into["values"].get(key)
                into["values"][key] = (
                    value if current is None else _fold(agg, current, value)
                )
        for name, payload in snapshot.get("histograms", {}).items():
            into = histograms.setdefault(
                name, {"bounds": list(payload["bounds"]), "values": {}}
            )
            if into["bounds"] != list(payload["bounds"]):
                raise ValueError(
                    "histogram %r merged with conflicting bounds" % name
                )
            for key, counts in payload["values"].items():
                current = into["values"].get(key)
                if current is None:
                    into["values"][key] = list(counts)
                else:
                    for index, count in enumerate(counts):
                        current[index] += count
    return {
        "counters": {k: _sorted_values(v) for k, v in sorted(counters.items())},
        "gauges": {
            k: {"agg": v["agg"], "values": _sorted_values(v["values"])}
            for k, v in sorted(gauges.items())
        },
        "histograms": {
            k: {"bounds": v["bounds"], "values": _sorted_values(v["values"])}
            for k, v in sorted(histograms.items())
        },
    }


def _sorted_values(values: Dict[str, object]) -> Dict[str, object]:
    return {key: values[key] for key in sorted(values)}


__all__ = ["merge_snapshots", "run_snapshot"]
