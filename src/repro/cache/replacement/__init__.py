"""Replacement policies: the Cost Aware Replacement Engine (CARE).

Figure 3(a) shows replacement as a pluggable engine; "CARE can consist
of any generic cost-sensitive scheme".  This package provides:

* :class:`LRUPolicy` — the paper's baseline (Equation 1).
* :class:`LINPolicy` — the Linear policy of Equation 2,
  ``victim = argmin R(i) + lambda * cost_q(i)``.
* :class:`BeladyPolicy` — OPT, for the Figure 1 analysis.
* :class:`EHCPolicy` — online expected-hit-count Belady approximation.
* :class:`AWRPPolicy` — adaptive weight (recency + frequency) ranking.
* :class:`FIFOPolicy`, :class:`RandomPolicy` — sanity baselines.
"""

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy, FIFOPolicy, RandomPolicy
from repro.cache.replacement.belady import BeladyPolicy
from repro.cache.replacement.ehc import EHCPolicy
from repro.cache.replacement.awrp import AWRPPolicy
from repro.cache.replacement.lin import LINPolicy
from repro.cache.replacement.registry import (
    available_policies,
    parse_policy_spec,
    register_policy,
    split_specs,
)

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "BeladyPolicy",
    "EHCPolicy",
    "AWRPPolicy",
    "LINPolicy",
    "register_policy",
    "parse_policy_spec",
    "available_policies",
    "split_specs",
]

# The DIP/LIP/BIP family lives in repro.cache.replacement.dip; it is
# imported directly (not re-exported here) because it builds on the
# sbar package, which itself imports the cache package.
