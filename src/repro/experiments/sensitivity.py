"""Extension study: sensitivity of the LIN benefit to machine parameters.

Not a paper figure — an ablation DESIGN.md calls for.  Two sweeps:

* **L2 capacity**: the MLP-aware benefit depends on how much of the
  protectable working set fits; sweeping the cache size shows where the
  LIN-vs-LRU gap opens and closes.
* **MSHR size**: the MSHR bounds achievable MLP.  With very few
  entries, "parallel" misses serialize and every miss tends toward the
  isolated cost, shrinking the cost differential LIN feeds on.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import MSHRConfig, scaled_config
from repro.experiments.common import Report, fmt_pct, resolve_benchmarks
from repro.sim.runner import Task, ipc_improvement

L2_SIZES_KB = (64, 128, 256, 512)
MSHR_SIZES = (1, 2, 4, 8, 32)
DEFAULT_BENCHMARK = "mcf"
MSHR_BENCHMARK = "art"  # bursts of 16: MLP actually bounded by MSHR
POLICIES = ("lru", "lin(4)")


def _benchmark(benchmarks) -> str:
    """The L2 sweep's benchmark: the first of ``benchmarks``, or mcf."""
    return (resolve_benchmarks(benchmarks, ()) or [DEFAULT_BENCHMARK])[0]


def _mshr_config(entries: int):
    return replace(scaled_config(256), mshr=MSHRConfig(n_entries=entries))


def cells(scale, benchmarks):
    l2 = [(_benchmark(benchmarks), scaled_config(kb)) for kb in L2_SIZES_KB]
    mshr = [(MSHR_BENCHMARK, _mshr_config(n)) for n in MSHR_SIZES]
    return [
        Task(name, policy, scale, config=config)
        for name, config in l2 + mshr
        for policy in POLICIES
    ]


def render(results, scale, benchmarks) -> Report:
    benchmark = _benchmark(benchmarks)

    def lru_and_lin(name, config):
        return (
            results[Task(name, policy, scale, config=config)]
            for policy in POLICIES
        )

    report = Report(
        "sensitivity",
        "Extension: LIN benefit vs L2 capacity and MSHR size (%s)" % benchmark,
    )

    rows = []
    for l2_kb in L2_SIZES_KB:
        lru, lin = lru_and_lin(benchmark, scaled_config(l2_kb))
        rows.append(("%d KB" % l2_kb, fmt_pct(ipc_improvement(lin, lru))))
    report.add_note(
        "L2 capacity sweep (surrogate pools scale with the 256KB machine,\n"
        "so smaller caches see deeper thrash and larger ones absorb it):"
    )
    report.add_table(["L2 size", "LIN(4) IPC gain"], rows)

    rows = []
    for entries in MSHR_SIZES:
        lru, lin = lru_and_lin(MSHR_BENCHMARK, _mshr_config(entries))
        rows.append(
            (
                str(entries),
                "%.0f" % lru.cost_distribution.average,
                fmt_pct(ipc_improvement(lin, lru)),
            )
        )
    report.add_note(
        "MSHR sweep (art, bursts of 16): few entries serialize the\n"
        "'parallel' misses, raising every miss's cost toward the isolated\n"
        "444 cycles and collapsing the differential LIN exploits:"
    )
    report.add_table(
        ["MSHR entries", "avg mlp-cost (LRU)", "LIN(4) IPC gain"], rows
    )
    return report
