"""Table 2: the baseline machine configuration.

Prints both the faithful Table 2 machine and the experiment-scaled
variant used by the benchmark surrogates (256 KB L2; see DESIGN.md).
"""

from __future__ import annotations

from repro.config import MachineConfig, baseline_config
from repro.experiments.common import Report, no_cells
from repro.workloads import experiment_config


def _describe(config: MachineConfig):
    memory = config.memory
    return [
        ("issue width", config.processor.issue_width),
        ("instruction window", config.processor.window_size),
        ("store buffer", config.processor.store_buffer_size),
        ("L1I", _cache_line(config.l1i)),
        ("L1D", _cache_line(config.l1d)),
        ("L2", _cache_line(config.l2)),
        ("MSHR entries", config.mshr.n_entries),
        ("DRAM banks", memory.n_banks),
        ("DRAM access latency", "%d cycles" % memory.dram_access_latency),
        ("bus delay / occupancy", "%d / %d cycles" % (memory.bus_delay, memory.bus_occupancy)),
        ("isolated miss latency", "%d cycles" % memory.isolated_miss_latency),
        ("max outstanding requests", memory.max_outstanding),
    ]


def _cache_line(geometry) -> str:
    return "%dKB, %dB lines, %d-way, %d sets, %d-cycle hit" % (
        geometry.size_bytes // 1024,
        geometry.line_bytes,
        geometry.associativity,
        geometry.n_sets,
        geometry.hit_latency,
    )


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report("table2", "Table 2: baseline processor configuration")
    report.add_note("Faithful Table 2 machine:")
    report.add_table(["parameter", "value"], _describe(baseline_config()))
    report.add_note(
        "Experiment machine (L2 scaled so working-set effects converge\n"
        "within Python-feasible trace lengths; everything else identical):"
    )
    report.add_table(["parameter", "value"], _describe(experiment_config()))
    return report
