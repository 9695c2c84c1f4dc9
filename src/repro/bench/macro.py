"""Macro-benchmarks: full-trace simulation runs.

Times complete :class:`repro.sim.simulator.Simulator` runs across the
figure1/sensitivity workload surrogates and the policy families the
experiments sweep most (plain LRU, the paper's LIN, and the SBAR/CBS
dueling controllers).  Each entry also embeds the run's key simulation
results — those are machine-independent, so two reports from different
hosts must agree on them even though their timings differ; a mismatch
means the kernel changed behavior, not just speed.

Each entry additionally records which path the run took
(``kernel_used``; ``fused`` is True for the native kernel) and, for
the generic loop, the native gate that failed (``kernel_fallback``): a
silent fall-back would otherwise masquerade as a timing regression.
Traces are packed once per workload and shared across the policy
cells.  One more cell per report samples phases (``phase_interval``,
Figure 11's bookkeeping) and embeds each phase's miss count, and the
prefetch cells (``prefetch_degree``) run with a stride prefetcher.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.cpu.prefetch import prefetcher_for
from repro.sim.simulator import Simulator
from repro.workloads import build_workload, experiment_config

#: Workloads × policies timed by ``run_macro`` (and ``make bench``):
#: one spec per registered policy.
MACRO_WORKLOADS = ("mcf", "art")
MACRO_POLICIES = (
    "lru", "lin(4)", "sbar", "cbs-global", "cbs-local", "ehc", "awrp",
    "plru", "cost-plru", "lip", "bip", "dip", "tournament",
)
#: The phase-sampled cell: (workload, policy, phase_interval).  About
#: 19 phases on mcf at the default scale.  It rides along whenever the
#: matrix holds its workload and policy.
MACRO_PHASED = ("mcf", "sbar", 500_000)
#: The prefetch cells: (workload, policy, prefetch_degree), the stride
#: prefetcher the ``prefetch`` experiment runs.  Each rides along
#: whenever the matrix holds its workload and policy.
MACRO_PREFETCHED = (("mcf", "lru", 2), ("art", "lin(4)", 2))


def macro_result_fields(result) -> Dict[str, object]:
    """The machine-independent result payload embedded per cell.

    A phase-sampled run also embeds its per-phase miss counts, so the
    digest check covers the phase cuts.
    """
    fields = {
        "l2_misses": result.l2_misses,
        "cycles": result.cycles,
        "demand_misses": result.demand_misses,
        "stall_cycles": result.stall_cycles,
    }
    if result.phases:
        fields["phase_misses"] = [phase.misses for phase in result.phases]
    return fields


def simulate_cell(
    workload: str,
    policy: str,
    scale: float,
    kernel: str = "auto",
    phase_interval: Optional[int] = None,
    prefetch_degree: Optional[int] = None,
):
    """Run one macro cell untimed; returns its SimResult.

    This is the re-simulation entry point the report ``--check`` mode
    uses: identical machine setup to the timed cells, so the embedded
    result fields must reproduce exactly on any host.  ``kernel`` is
    the replay kernel to request; results are bit-identical across
    kernels by contract.
    """
    trace = build_workload(workload, scale=scale)
    return _simulator(
        experiment_config(), policy, kernel, phase_interval, prefetch_degree
    ).run(trace)


def _simulator(config, policy, kernel, phase_interval, prefetch_degree):
    return Simulator(
        config, policy, kernel=kernel, phase_interval=phase_interval,
        prefetcher=prefetcher_for(prefetch_degree),
    )


def run_macro(
    scale: float = 0.5,
    repeat: int = 2,
    quick: bool = False,
    workloads: Sequence[str] = MACRO_WORKLOADS,
    policies: Sequence[str] = MACRO_POLICIES,
    kernel: str = "auto",
) -> List[Dict[str, object]]:
    """Time full simulation runs; returns one entry per (workload, policy),
    plus the :data:`MACRO_PHASED` and :data:`MACRO_PREFETCHED` cells
    the matrix holds.

    ``quick`` shrinks the traces and skips repetition for smoke tests;
    otherwise each cell reports best-of-``repeat`` wall time after one
    untimed warm-up run (first-run interpreter effects dominate
    otherwise).  ``kernel`` is the replay kernel every cell
    requests (recorded per entry); call once per kernel to build a
    kernel-comparison report.  Repetitions are *interleaved* round-robin across the
    cells rather than run back-to-back per cell: machine noise is often
    sustained over many seconds, and consecutive repeats of one cell
    would all land in the same slow window while another cell gets all
    the quiet ones.
    """
    if quick:
        scale = 0.05
        repeat = 1
    config = experiment_config()
    entries: List[Dict[str, object]] = []
    phased_workload, phased_policy, interval = MACRO_PHASED
    for workload in workloads:
        trace = build_workload(workload, scale=scale)
        accesses = len(trace)
        cells = [(policy, None, None) for policy in policies]
        if workload == phased_workload and phased_policy in policies:
            cells.append((phased_policy, interval, None))
        cells.extend(
            (policy, None, degree)
            for prefetched, policy, degree in MACRO_PREFETCHED
            if prefetched == workload and policy in policies
        )
        for policy, phase_interval, prefetch_degree in cells:
            if not quick:
                _simulator(config, policy, kernel, phase_interval,
                           prefetch_degree).run(trace)
            entry = {
                "workload": workload,
                "policy": policy,
                "accesses": accesses,
                "scale": scale,
                "seconds": float("inf"),
                "accesses_per_sec": 0.0,
                "fused": False,
                "kernel": kernel,
                "kernel_used": "generic",
                "kernel_fallback": None,
                "result": None,
                "_trace": trace,
            }
            if phase_interval is not None:
                entry["phase_interval"] = phase_interval
            if prefetch_degree is not None:
                entry["prefetch_degree"] = prefetch_degree
            entries.append(entry)
    for _ in range(repeat):
        for entry in entries:
            sim = _simulator(config, entry["policy"], kernel,
                             entry.get("phase_interval"),
                             entry.get("prefetch_degree"))
            start = perf_counter()
            result = sim.run(entry["_trace"])
            elapsed = perf_counter() - start
            if elapsed < entry["seconds"]:
                entry["seconds"] = elapsed
                entry["accesses_per_sec"] = entry["accesses"] / elapsed
                entry["fused"] = sim.replay_kernel == "native"
                entry["kernel_used"] = sim.replay_kernel
                entry["kernel_fallback"] = sim.kernel_fallback
                entry["result"] = macro_result_fields(result)
    for entry in entries:
        del entry["_trace"]
    return entries
