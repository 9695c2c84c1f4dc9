"""Metrics registry: counters, gauges, and histograms with labels.

The registry is the deterministic half of the observability layer:
every value in a snapshot is a pure function of the simulated work
(wall-clock timing lives in ``SimResult.meta["stage_s"]``), so two
runs of the same simulation — serial or fanned out across a worker
pool — produce bit-identical snapshots, and snapshots merge by simple
arithmetic:

* **counters** sum,
* **gauges** combine according to their declared aggregation
  (``max``/``min``/``sum``),
* **histograms** add their per-bucket counts (bucket bounds must
  match).

Labels are free-form keyword arguments (``counter.inc(cache="l2")``);
each label combination keys its own value.  Label sets serialize to a
sorted ``k=v`` string so snapshots are JSON-safe and deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

#: Gauge aggregation modes understood by :func:`merge_snapshots`.
GAUGE_AGGREGATIONS = ("max", "min", "sum")


def _label_key(labels: Dict[str, object]) -> str:
    """``{"cache": "l2", "kind": "rd"}`` → ``"cache=l2,kind=rd"`` (sorted)."""
    if not labels:
        return ""
    return ",".join(
        "%s=%s" % (key, labels[key]) for key in sorted(labels)
    )


class Counter:
    """Monotonically increasing value, one per label combination."""

    kind = "counter"
    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[str, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up, got %r" % amount)
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0)


class Gauge:
    """Point-in-time value with a declared cross-snapshot aggregation."""

    kind = "gauge"
    __slots__ = ("name", "help", "agg", "_values")

    def __init__(self, name: str, help: str = "", agg: str = "max") -> None:
        if agg not in GAUGE_AGGREGATIONS:
            raise ValueError(
                "gauge aggregation must be one of %s, got %r"
                % (", ".join(GAUGE_AGGREGATIONS), agg)
            )
        self.name = name
        self.help = help
        self.agg = agg
        self._values: Dict[str, float] = {}

    def set(self, value: float, **labels) -> None:
        """Record ``value``, folding it in by the gauge's aggregation."""
        key = _label_key(labels)
        current = self._values.get(key)
        self._values[key] = (
            value if current is None else _fold(self.agg, current, value)
        )

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))


class Histogram:
    """Counts of observations bucketed by fixed upper bounds.

    ``bounds`` are inclusive upper edges; an observation larger than
    every bound lands in the trailing overflow bucket, so ``counts``
    has ``len(bounds) + 1`` entries per label combination.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "_values", "_count_sum")

    def __init__(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(ordered):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.help = help
        self.bounds = ordered
        self._values: Dict[str, List[int]] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts = self._values.get(key)
        if counts is None:
            counts = self._values[key] = [0] * (len(self.bounds) + 1)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                counts[index] += 1
                return
        counts[-1] += 1

    def counts(self, **labels) -> List[int]:
        counts = self._values.get(_label_key(labels))
        if counts is None:
            return [0] * (len(self.bounds) + 1)
        return list(counts)


def _fold(agg: str, current: float, incoming: float) -> float:
    if agg == "max":
        return current if current >= incoming else incoming
    if agg == "min":
        return current if current <= incoming else incoming
    return current + incoming  # "sum"


class MetricsRegistry:
    """Home of one simulation run's (or one process's) metrics.

    Instruments are get-or-create: asking twice for the same name
    returns the same object, and asking with a conflicting kind raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is not None and metric.kind != kind:
            raise ValueError(
                "metric %r already registered as a %s" % (name, metric.kind)
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get(name, "counter")
        if metric is None:
            metric = self._metrics[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "", agg: str = "max") -> Gauge:
        metric = self._get(name, "gauge")
        if metric is None:
            metric = self._metrics[name] = Gauge(name, help, agg)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> Histogram:
        metric = self._get(name, "histogram")
        if metric is None:
            metric = self._metrics[name] = Histogram(name, bounds, help)
        return metric

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe, deterministic dump of every instrument.

        Instruments with no recorded values are omitted so a snapshot
        only speaks about things that actually happened.
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if not metric._values:
                continue
            values = {key: metric._values[key] for key in sorted(metric._values)}
            if metric.kind == "counter":
                counters[name] = values
            elif metric.kind == "gauge":
                gauges[name] = {"agg": metric.agg, "values": values}
            else:
                histograms[name] = {
                    "bounds": list(metric.bounds),
                    "values": {k: list(v) for k, v in values.items()},
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


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


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "GAUGE_AGGREGATIONS",
]
