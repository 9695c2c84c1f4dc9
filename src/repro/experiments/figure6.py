"""Figure 6: the Contest-Based Selection decision table, demonstrated.

Figure 6 is a mechanism diagram, not a data figure, so this experiment
*demonstrates* it: a crafted access sequence drives one leader set of
an SBAR controller through all four (MTD, ATD) outcome combinations
and prints the PSEL trajectory next to the paper's table:

    ATD-LIN(=leader MTD)  ATD-LRU   action
    hit                   hit       PSEL unchanged
    miss                  miss      PSEL unchanged
    hit                   miss      PSEL += cost_q of the ATD miss
    miss                  hit       PSEL -= cost_q of the MTD miss
"""

from __future__ import annotations

from repro.cache.block import BlockState
from repro.cache.cache import AccessResult
from repro.experiments.common import Report, no_cells
from repro.sbar.sbar import SBARController


def _mtd(hit: bool, cost_q: int, set_index: int) -> AccessResult:
    state = BlockState(0)
    state.cost_q = cost_q
    return AccessResult(hit, state, set_index)


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report(
        "figure6", "Figure 6: CBS decision table, demonstrated on one set"
    )
    controller = SBARController(n_sets=64, associativity=4, n_leaders=8)
    leader = min(controller.leaders)
    psel = controller.psel
    rows = []

    def log(case: str, action):
        before = psel.value
        pending = action()
        deferred = ""
        if pending is not None:
            pending(6)  # the miss gets serviced with cost_q = 6
            deferred = " (deferred)"
        rows.append((case, before, psel.value, deferred or "immediate"))

    # Case 1: both miss (cold set and cold ATD).
    log(
        "MTD miss / ATD miss",
        lambda: controller.observe_access(leader, 100, _mtd(False, 0, leader)),
    )
    # Block 100 is now in the ATD.  Case 2: both hit.
    log(
        "MTD hit  / ATD hit",
        lambda: controller.observe_access(leader, 100, _mtd(True, 5, leader)),
    )
    # Case 3: MTD hit, ATD miss (LIN kept a block LRU would have lost):
    # PSEL += cost_q from the MTD tag entry.
    log(
        "MTD hit  / ATD miss",
        lambda: controller.observe_access(leader, 200, _mtd(True, 5, leader)),
    )
    # Block 200 is now in the ATD.  Case 4: MTD miss, ATD hit (LRU kept
    # it, LIN lost it): PSEL -= the serviced miss's cost_q, deferred
    # until Algorithm 1 finishes integrating that miss.
    log(
        "MTD miss / ATD hit",
        lambda: controller.observe_access(leader, 200, _mtd(False, 0, leader)),
    )

    report.add_table(
        ["case", "PSEL before", "PSEL after", "update"], rows
    )
    report.add_note(
        "PSEL moves by the quantized MLP-based cost of the miss, not by\n"
        "1: the contest selects the policy with fewer *stall cycles*,\n"
        "not fewer misses (Section 6.1).  The deferred update in the\n"
        "last row is how the simulator waits for Algorithm 1 to finish\n"
        "integrating the miss it is charging."
    )
    return report
