"""Hardware overhead of SBAR (Sections 1.2 and 6.4): the 1854 B budget.

On the paper's 1 MB, 16-way, 1024-set cache, SBAR needs a sparse
ATD-LRU for 32 leader sets plus one 6-bit PSEL: with a 40-bit physical
address that is 32*16 entries of 29 bits + 6 bits ~ 1857 B, matching
the paper's 1854 B to within a few bytes (<0.2 % of the cache's area).
"""

from __future__ import annotations

from repro.config import baseline_config
from repro.experiments.common import Report, no_cells
from repro.sbar.overhead import cbs_overhead, sbar_overhead

PAPER_OVERHEAD_BYTES = 1854


cells = no_cells


def render(results, scale, benchmarks) -> Report:
    report = Report("overhead", "SBAR hardware overhead (1 MB baseline cache)")
    geometry = baseline_config().l2
    sbar = sbar_overhead(geometry, n_leaders=32, psel_bits=6)
    rows = [
        ("ATD entries (32 leader sets x 16 ways)", sbar.atd_entries),
        ("bits per entry (24b tag + valid + 4b LRU)", sbar.bits_per_entry),
        ("PSEL counters x bits", "%d x %d" % (sbar.psel_counters, sbar.psel_bits)),
        ("total bits", sbar.total_bits),
        ("total bytes", "%.1f" % sbar.total_bytes),
        ("paper's figure", "%d bytes" % PAPER_OVERHEAD_BYTES),
        (
            "fraction of cache area",
            "%.3f%%" % (100.0 * sbar.fraction_of_cache(geometry)),
        ),
    ]
    report.add_table(["quantity", "value"], rows)

    cbs_global = cbs_overhead(geometry, per_set_psel=False)
    cbs_local = cbs_overhead(geometry, per_set_psel=True)
    report.add_note(
        "For contrast, CBS-global needs %.0f B and CBS-local %.0f B\n"
        "(%.0fx and %.0fx SBAR's budget): the two full ATDs are what\n"
        "made hybrid replacement impractical before sampling."
        % (
            cbs_global.total_bytes,
            cbs_local.total_bytes,
            cbs_global.total_bytes / sbar.total_bytes,
            cbs_local.total_bytes / sbar.total_bytes,
        )
    )
    return report
