"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation prints a small result table alongside its timing:

* lambda sweep beyond the paper's 1-4 (does more cost weighting help?)
* cost-quantization granularity (3-bit cost_q vs exact cost)
* shared cost adders (footnote 3: 4 adders vs one per entry)
* PSEL width sensitivity
"""

from dataclasses import replace

from repro.config import MSHRConfig
from repro.sbar.sbar import SBARController
from repro.sim.simulator import Simulator
from repro.workloads import build_workload, experiment_config

SCALE = 0.25
BENCH = "mcf"


def _run(policy, config=None, bench=BENCH):
    config = config or experiment_config()
    return Simulator(config, policy).run(build_workload(bench, scale=SCALE))


def _print(capsys, title, rows):
    with capsys.disabled():
        print("\n[ablation] %s" % title)
        for label, value in rows:
            print("    %-28s %s" % (label, value))


def test_lambda_sweep_extended(benchmark, capsys):
    def run():
        baseline = _run("lru")
        rows = []
        for lam in (0, 1, 2, 4, 8, 16):
            result = _run("lin(%d)" % lam)
            gain = 100 * (result.ipc - baseline.ipc) / baseline.ipc
            rows.append(("lambda=%d" % lam, "%+.1f%% IPC" % gain))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "LIN lambda sweep (mcf)", rows)


def test_shared_adders_vs_ideal(benchmark, capsys):
    def run():
        ideal = _run("lin(4)")
        shared_config = replace(
            experiment_config(), mshr=MSHRConfig(32, n_cost_adders=4)
        )
        shared = _run("lin(4)", config=shared_config)
        return [
            ("ideal adders IPC", "%.4f" % ideal.ipc),
            ("4 shared adders IPC", "%.4f" % shared.ipc),
            (
                "IPC delta",
                "%.3f%%" % (100 * abs(shared.ipc - ideal.ipc) / ideal.ipc),
            ),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "footnote 3: shared cost adders (negligible)", rows)


def test_psel_width_sensitivity(benchmark, capsys):
    def run():
        config = experiment_config()
        baseline = _run("lru", bench="ammp")
        rows = []
        for bits in (4, 6, 8):
            controller = SBARController(
                config.l2.n_sets, config.l2.associativity,
                n_leaders=16, psel_bits=bits,
            )
            result = _run(controller, bench="ammp")
            gain = 100 * (result.ipc - baseline.ipc) / baseline.ipc
            rows.append(("PSEL %d bits" % bits, "%+.1f%% IPC" % gain))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "PSEL width (ammp)", rows)


def test_leader_count_sweep(benchmark, capsys):
    def run():
        config = experiment_config()
        baseline = _run("lru", bench="parser")
        rows = []
        for leaders in (4, 8, 16, 32, 64):
            controller = SBARController(
                config.l2.n_sets, config.l2.associativity,
                n_leaders=leaders,
            )
            result = _run(controller, bench="parser")
            gain = 100 * (result.ipc - baseline.ipc) / baseline.ipc
            rows.append(("%d leaders" % leaders, "%+.1f%% IPC" % gain))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "leader-count sweep (parser, SBAR vs LRU)", rows)


def test_hardware_fidelity_plru(benchmark, capsys):
    """True-LRU recency vs tree-PLRU, with and without cost awareness."""

    def run():
        baseline = _run("lru")
        rows = []
        for policy in ("plru", "lin(4)", "cost-plru"):
            result = _run(policy)
            gain = 100 * (result.ipc - baseline.ipc) / baseline.ipc
            rows.append((policy, "%+.1f%% IPC" % gain))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "hardware fidelity: LRU stack vs PLRU tree (mcf)", rows)


def test_row_buffer_dram(benchmark, capsys):
    """Flat 400-cycle DRAM vs the open-page row-buffer refinement."""
    from repro.config import MemoryConfig

    def run():
        flat = _run("lru", bench="art")
        row_config = replace(
            experiment_config(), memory=MemoryConfig(row_buffer=True)
        )
        rows_result = _run("lru", config=row_config, bench="art")
        return [
            ("flat DRAM IPC", "%.4f" % flat.ipc),
            ("row-buffer DRAM IPC", "%.4f" % rows_result.ipc),
            ("flat avg mlp-cost", "%.0f" % flat.avg_mlp_cost),
            ("row-buffer avg mlp-cost", "%.0f" % rows_result.avg_mlp_cost),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _print(capsys, "DRAM model: flat vs open-page row buffer (art)", rows)
