"""Span recording and per-layer aggregation for the traced benchmark run.

The traced run wraps the public function at each layer boundary of
``repro`` (see :data:`BOUNDARIES`) from outside the package: nothing in
``src/`` is edited.  Every wrapped call records one span — name, start,
end, parent span, pid and run id, plus a few per-boundary fields such
as the trace length or the replay kernel taken.  Spans stay in memory
and are written as JSON lines when the process ends.  Pool workers are
forked and inherit the wrappers; they skip ``atexit``, so a forked
process writes its spans after each top-level span and again from a
``multiprocessing.util.Finalize`` hook.

:func:`layer_metrics` turns the spans of one traced run into the
benchmark's ``per_layer`` metrics.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Experiment names in the order ``python -m repro experiments`` runs them.
EXPERIMENT_NAMES = (
    "figure1", "figure2", "figure3", "table1", "table2", "table3",
    "figure4", "figure5", "figure6", "figure8", "figure9", "figure10",
    "figure11", "cbs", "oracle", "overhead", "sensitivity", "dip",
    "prefetch", "costmodel", "calibration",
)

KERNELS = ("native", "batched", "fused", "generic")

SPAN_FILE_PREFIX = "spans-"


class Recorder:
    """Collects spans for one process tree and writes them to ``out_dir``."""

    def __init__(self, out_dir: os.PathLike, run_id: str) -> None:
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._origin_pid = os.getpid()
        self._pid = self._origin_pid
        self._spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        atexit.register(self.flush)

    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        """First span in a forked child: drop the parent's state."""
        from multiprocessing import util

        self._pid = os.getpid()
        self._spans = []
        self._local = threading.local()
        util.Finalize(self, self.flush, exitpriority=100)

    def add(self, span: Dict[str, object]) -> None:
        """Record a span measured elsewhere (the bootstrap's startup)."""
        span.setdefault("id", next(self._ids))
        span.setdefault("parent", None)
        span["pid"] = os.getpid()
        span["run"] = self.run_id
        self._spans.append(span)

    def wrap(
        self,
        name: str,
        func: Callable,
        annotate: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recording one span per call.

        ``annotate(args, kwargs, result)`` returns extra span fields.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name,
                        "start": start, "end": end}
                if annotate is not None:
                    span.update(annotate(args, kwargs, result))
                self.add(span)
                if not stack and os.getpid() != self._origin_pid:
                    self.flush()

        return wrapper

    def flush(self) -> None:
        spans, self._spans = self._spans, []
        if not spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / ("%s%d.jsonl" % (SPAN_FILE_PREFIX, os.getpid()))
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


# -- layer boundaries ---------------------------------------------------------


def _build_fields(args, kwargs, result):
    workload = args[0]
    scale = args[1] if len(args) > 1 else kwargs.get("scale")
    return {
        "records": len(result) if result is not None else 0,
        "key": "%s@%r" % (workload.canonical, scale),
    }


def _run_fields(args, kwargs, result):
    simulator, trace = args[0], args[1]
    return {"kernel": simulator.replay_kernel, "accesses": len(trace)}


def _native_fields(args, kwargs, result):
    return {"accepted": bool(result)}


def _load_fields(args, kwargs, result):
    return {"hit": result is not None}


def _grid_fields(args, kwargs, result):
    tasks = args[0] if args else kwargs.get("tasks", ())
    if result is None:
        return {"tasks": len(tasks)}
    return {
        "tasks": len(tasks),
        "utilization": result.utilization,
        "retries": int(result.resilience.get("retries", 0)),
    }


#: (module, attribute path, span name, annotate).  ``Workload.build`` is
#: expanded to every subclass that defines its own ``build``.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.simulator", "Simulator.__init__", "sim.setup", None),
    ("repro.sim.simulator", "Simulator.run", "sim.run", _run_fields),
    ("repro.sim.native", "try_replay", "sim.native", _native_fields),
    ("repro.sim.runner", "run_policy", "runner.run_policy", None),
    ("repro.sim.store", "ResultStore.load", "store.load", _load_fields),
    ("repro.sim.store", "ResultStore.load_payload", "store.load",
     _load_fields),
    ("repro.sim.store", "ResultStore.save", "store.save", None),
    ("repro.sim.store", "ResultStore.save_payload", "store.save", None),
    ("repro.sim.parallel", "run_grid", "parallel.run_grid", _grid_fields),
    ("repro.analysis.oracle", "oracle_report", "oracle.report", None),
)


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _workload_classes() -> List[type]:
    importlib.import_module("repro.workloads")
    registry = importlib.import_module("repro.workloads.registry")
    seen, pending = [], [registry.Workload]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "build" in cls.__dict__]


def install(recorder: Recorder, experiments: bool = True) -> Installation:
    """Wrap every layer boundary in ``repro``; returns the undo handle.

    Only module and class attributes are replaced.  The native gate
    refuses instance-level patches and non-exact types, and neither
    changes here, so wrapped runs take the same kernel as unwrapped
    ones.  A module-level function is also replaced in every loaded
    ``repro`` module that imported it by name (``repro.sim`` re-exports
    ``run_policy``); modules loaded later import the wrapper.  Wrapping
    the experiment modules imports all 21 of them, so
    ``experiments=False`` skips that for commands that never run one.
    """
    installation = Installation()
    for module_name, path, span_name, annotate in BOUNDARIES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = recorder.wrap(span_name, original, annotate)
        owners = [owner]
        if not outer:
            owners += [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for each in owners:
            installation.patch(each, attr, wrapper)
    for cls in _workload_classes():
        installation.patch(
            cls, "build",
            recorder.wrap("workloads.build", cls.__dict__["build"],
                          _build_fields),
        )
    if not experiments:
        return installation
    registry = importlib.import_module("repro.experiments").EXPERIMENTS
    for name, module in registry.items():
        installation.patch(
            module, "run", recorder.wrap("experiments.%s" % name, module.run)
        )
    return installation


# -- aggregation --------------------------------------------------------------


def load_spans(out_dir: os.PathLike) -> List[Dict[str, object]]:
    spans = []
    for path in sorted(Path(out_dir).glob(SPAN_FILE_PREFIX + "*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[Tuple, float]:
    """(pid, id) -> span duration minus the part its children cover."""
    children: Dict[Tuple, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        inside = [
            (max(s, start), min(e, end))
            for s, e in children.get(key, ())
            if min(e, end) > max(s, start)
        ]
        result[key] = (end - start) - covered(inside)
    return result


def _outermost(spans, name: str) -> List[Dict[str, object]]:
    """Spans called ``name`` with no ``name`` span above them."""
    by_key = {(span["pid"], span["id"]): span for span in spans}

    def nested(span) -> bool:
        above = by_key.get((span["pid"], span["parent"]))
        while above is not None:
            if above["name"] == name:
                return True
            above = by_key.get((span["pid"], above["parent"]))
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Dict[str, object]],
    window: Tuple[float, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced run, summed over all processes.

    ``window`` is the timed region on the ``perf_counter`` clock, which
    is system-wide on Linux, so spans from every process line up with
    it.  ``unattributed.s`` is the part of the window that neither the
    startup span nor any top-level span of any process covers.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(selfs[(s["pid"], s["id"])] for s in by_name.get(name, ()))

    def count(name: str, predicate=lambda span: True) -> int:
        return sum(1 for s in by_name.get(name, ()) if predicate(s))

    builds = _outermost(spans, "workloads.build")
    build_s = sum(s["end"] - s["start"] for s in builds)
    records = sum(s["records"] for s in builds)
    loads = by_name.get("store.load", ())
    grids = by_name.get("parallel.run_grid", ())
    grid_s = total("parallel.run_grid")
    accesses = sum(s["accesses"] for s in by_name.get("sim.run", ()))

    metrics: Dict[str, float] = {
        "startup.s": total("startup"),
        "workloads.build.calls": len(builds),
        "workloads.build.s": build_s,
        "workloads.build.ns_per_record": _ratio(build_s * 1e9, records),
        "workloads.build.unique_share": _ratio(
            len({s["key"] for s in builds}), len(builds)
        ),
        "sim.setup.s": total("sim.setup"),
        "sim.run.s": total("sim.run"),
        "sim.run.self_s": self_total("sim.run"),
        "sim.native.s": total("sim.native"),
        "sim.native.accepted": count("sim.native", lambda s: s["accepted"]),
    }
    for kernel in KERNELS:
        metrics["sim.kernel.%s" % kernel] = count(
            "sim.run", lambda s, k=kernel: s["kernel"] == k
        )
    metrics.update({
        "sim.accesses": accesses,
        "sim.ns_per_access": _ratio(total("sim.run") * 1e9, accesses),
        "runner.run_policy.calls": count("runner.run_policy"),
        "runner.run_policy.self_s": self_total("runner.run_policy"),
        "store.load.calls": len(loads),
        "store.load.s": total("store.load"),
        "store.hit_share": _ratio(sum(1 for s in loads if s["hit"]),
                                  len(loads)),
        "store.save.calls": count("store.save"),
        "store.save.s": total("store.save"),
        "parallel.run_grid.s": grid_s,
        "parallel.tasks": sum(s["tasks"] for s in grids),
        "parallel.worker_utilization": _ratio(
            sum(s.get("utilization", 0.0) * (s["end"] - s["start"])
                for s in grids),
            grid_s,
        ),
        "parallel.retries": sum(s.get("retries", 0) for s in grids),
        "oracle.report.calls": count("oracle.report"),
        "oracle.report.s": total("oracle.report"),
    })
    for name in EXPERIMENT_NAMES:
        metrics["experiments.%s.s" % name] = total("experiments.%s" % name)

    low, high = window
    top = [
        (max(s["start"], low), min(s["end"], high))
        for s in spans
        if s["parent"] is None and min(s["end"], high) > max(s["start"], low)
    ]
    metrics["unattributed.s"] = (high - low) - covered(top)
    return metrics


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over several runs' metric dicts."""
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }
