"""Figure 1: the motivating P/S loop example.

Belady's OPT minimizes misses (4 per iteration) but eats four
long-latency stalls; the MLP-aware policy takes six misses but only two
stalls; LRU takes six misses and four stalls.  This experiment runs the
exact access stream of Figure 1(a) on a four-block fully-associative
cache and measures steady-state misses and stalls per iteration.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.replacement import BeladyPolicy, LINPolicy, LRUPolicy
from repro.cache.replacement.belady import (
    collapse_consecutive,
    next_use_distances,
)
from repro.config import CacheGeometry, baseline_config
from repro.experiments.common import Report, no_cells
from repro.sim.simulator import Simulator
from repro.trace.figure1 import FIGURE1_PATTERN, figure1_trace

#: Paper's per-iteration results: policy -> (misses, stalls).
PAPER = {"belady": (4, 4), "mlp-aware (lin)": (6, 2), "lru": (6, 4)}

WARMUP_ITERATIONS = 10
MEASURED_ITERATIONS = 40


def figure1_config():
    """A Table 2 machine with a 4-block fully-associative L2.

    The L1 is shrunk to a single block so every access reaches the L2
    in trace order (the example reasons about one cache level only).
    """
    base = baseline_config()
    return replace(
        base,
        l1d=CacheGeometry(64, 64, 1, 1),
        l1i=CacheGeometry(64, 64, 1, 1),
        l2=CacheGeometry(4 * 64, 64, 4, base.l2.hit_latency),
    )


def simulate_policy(policy_name: str):
    """Run one policy over warmup+measured iterations of the loop.

    Returns (misses_per_iteration, stalls_per_iteration) measured over
    the steady-state window.
    """
    config = figure1_config()
    total = WARMUP_ITERATIONS + MEASURED_ITERATIONS

    def build(iterations):
        return figure1_trace(iterations)

    if policy_name == "belady":
        policy = _belady_for(total)
    elif policy_name == "mlp-aware (lin)":
        policy = LINPolicy(4)
    elif policy_name == "lru":
        policy = LRUPolicy()
    else:
        raise ValueError("unknown Figure 1 policy %r" % policy_name)

    warm = Simulator(config, _clone(policy, total))
    warm_result = warm.run(build(WARMUP_ITERATIONS))
    full = Simulator(config, _clone(policy, total))
    full_result = full.run(build(total))

    misses = (
        full_result.demand_misses - warm_result.demand_misses
    ) / MEASURED_ITERATIONS
    stalls = (
        full_result.long_stalls - warm_result.long_stalls
    ) / MEASURED_ITERATIONS
    return misses, stalls


def _belady_for(iterations: int) -> BeladyPolicy:
    """OPT oracle over the L2-visible (consecutive-duplicate-free)
    block sequence of ``iterations`` loop iterations."""
    raw = [access.address // 64 for access in figure1_trace(iterations)]
    visible = collapse_consecutive(raw)
    return BeladyPolicy(next_use_distances(visible), expected_blocks=visible)


def _clone(policy, total_iterations):
    """Fresh policy instance per simulation (Belady needs its oracle)."""
    if isinstance(policy, BeladyPolicy):
        return _belady_for(total_iterations)
    if isinstance(policy, LINPolicy):
        return LINPolicy(policy.lam)
    return LRUPolicy()


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure1",
        "Figure 1: Belady's OPT vs MLP-aware vs LRU on the P/S loop",
    )
    report.add_note(
        "Access stream per iteration: %s (4-block fully-associative cache)"
        % " ".join(FIGURE1_PATTERN)
    )
    rows = []
    for policy_name in ("belady", "mlp-aware (lin)", "lru"):
        misses, stalls = simulate_policy(policy_name)
        paper_misses, paper_stalls = PAPER[policy_name]
        rows.append(
            (
                policy_name,
                "%.1f" % misses,
                paper_misses,
                "%.1f" % stalls,
                paper_stalls,
            )
        )
    report.add_table(
        ["policy", "misses/iter", "paper", "stalls/iter", "paper"], rows
    )
    report.add_note(
        "The MLP-aware policy halves the long-latency stalls relative to\n"
        "OPT even though it takes two more misses per iteration."
    )
    return report
