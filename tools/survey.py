"""Tuning aid: all benchmarks under LRU/LIN(4)/SBAR vs paper targets."""
import sys, time
from repro import Simulator, build_workload, experiment_config, BENCHMARKS
from repro.workloads import PAPER_FIG5, PAPER_FIG9_SBAR

scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
names = sys.argv[2:] or BENCHMARKS
t0 = time.time()
hdr = "%-9s %7s | %6s %6s %6s | paper %6s %6s %6s" % (
    "bench", "lruIPC", "dIPC%", "dMISS%", "sIPC%", "dIPC", "dMISS", "sIPC")
print(hdr)
for b in names:
    lru = Simulator(experiment_config(), "lru").run(build_workload(b, scale).to_accesses())
    lin = Simulator(experiment_config(), "lin(4)").run(build_workload(b, scale).to_accesses())
    sbar = Simulator(experiment_config(), "sbar").run(build_workload(b, scale).to_accesses())
    dipc = 100 * (lin.ipc - lru.ipc) / lru.ipc
    dmiss = 100 * (lin.demand_misses - lru.demand_misses) / lru.demand_misses
    sipc = 100 * (sbar.ipc - lru.ipc) / lru.ipc
    pm, pi = PAPER_FIG5[b]
    ps = PAPER_FIG9_SBAR[b]
    print("%-9s %7.4f | %+6.1f %+6.1f %+6.1f | paper %+6.1f %+6.1f %+6.1f" % (
        b, lru.ipc, dipc, dmiss, sipc, pi, pm, ps))
print("total %.1fs" % (time.time() - t0))
