"""CDF-driven datacenter traffic: key-value streams from flow-size CDFs.

Server-class cache studies (and the successor work on learned eviction)
evaluate on datacenter key-value traces rather than SPEC slices.  This
module synthesizes such streams the way datacenter network simulators
synthesize load — by sampling object sizes from published flow-size
CDFs (the web-search and data-mining distributions used throughout the
DCTCP/PrintQueue line of work) and popularity from a Zipf law:

* every *object* draws its size from the inverse CDF (deterministic in
  the seed), and occupies a contiguous block range;
* every *request* picks an object Zipf-style and streams up to
  ``chunk`` consecutive blocks from the object's cursor;
* tiny objects (at most :data:`ISOLATED_THRESHOLD_BLOCKS` blocks) are
  requested with isolating gaps — the latency-bound short-flow
  population, producing isolated (high-cost) misses — while large
  objects stream with burst gaps, producing high-MLP (low-cost) miss
  clusters.

That mapping gives the two distributions opposite MLP characters: the
data-mining CDF is dominated by 1–3 KB objects (mostly isolated
misses), web-search by multi-MB streams (mostly parallel misses), so
MLP-aware replacement sees genuinely different cost mixes than on any
SPEC surrogate.  Spec form: ``cdf(web_search,ops=2e6,seed=7)``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from random import Random
from typing import Dict, List, Tuple

from repro.trace.packed import PackedTrace
from repro.trace.record import LOAD, STORE
from repro.trace.synthetic import BURST_GAP, ISOLATING_GAP
from repro.workloads.registry import (
    Workload,
    WorkloadSpecError,
    format_number,
)

#: Flow-size CDFs as (cumulative probability, size in KB) steps.
#: Transcribed from the web-search (DCTCP) and data-mining (VL2)
#: distributions as published in the PrintQueue traffic generator.
CDFS: Dict[str, List[Tuple[float, int]]] = {
    "web_search": [
        (0.15, 6), (0.2, 13), (0.3, 19), (0.4, 33), (0.53, 53),
        (0.6, 133), (0.7, 667), (0.8, 1333), (0.9, 3333),
        (0.97, 6667), (1.0, 20000),
    ],
    "data_mining": [
        (0.5, 1), (0.6, 2), (0.7, 3), (0.8, 7), (0.9, 267),
        (0.95, 2107), (0.99, 66667), (1.0, 666667),
    ],
}

#: Objects at most this many cache blocks are treated as short flows
#: and requested with isolating gaps (2 KB at 64-byte lines).
ISOLATED_THRESHOLD_BLOCKS = 32

#: Block-index namespace base; clear of every surrogate traffic class.
_BASE_BLOCK = 1 << 27

_LINE_BYTES = 64


def _sample_size_kb(cdf: List[Tuple[float, int]], u: float) -> int:
    """Inverse-CDF step lookup: the first entry whose cumulative
    probability covers ``u`` (the PrintQueue sampling rule)."""
    probabilities = [entry[0] for entry in cdf]
    return cdf[min(bisect_left(probabilities, u), len(cdf) - 1)][1]


class CDFWorkload(Workload):
    """A Zipf-over-CDF key-value access stream (see module docstring)."""

    DEFAULTS = {
        "ops": 150_000, "seed": 0, "objects": 2048, "chunk": 32,
        "zipf": 0.9, "stores": 0.1,
    }

    def __init__(
        self,
        distribution: str = "web_search",
        ops: float = DEFAULTS["ops"],
        seed: int = DEFAULTS["seed"],
        objects: int = DEFAULTS["objects"],
        chunk: int = DEFAULTS["chunk"],
        zipf: float = DEFAULTS["zipf"],
        stores: float = DEFAULTS["stores"],
    ) -> None:
        if distribution not in CDFS:
            raise WorkloadSpecError(
                "unknown CDF distribution %r; choose from %s"
                % (distribution, ", ".join(sorted(CDFS)))
            )
        self.distribution = distribution
        self.ops = int(float(ops))
        self.seed = int(seed)
        self.objects = int(objects)
        self.chunk = int(chunk)
        self.zipf = float(zipf)
        self.stores = float(stores)
        if self.ops < 1 or self.objects < 1 or self.chunk < 1:
            raise WorkloadSpecError(
                "cdf ops/objects/chunk must be positive"
            )
        if not 0.0 <= self.stores <= 1.0:
            raise WorkloadSpecError(
                "cdf stores fraction must be in [0, 1]"
            )

    @property
    def canonical(self) -> str:
        parts = [
            self.distribution,
            "ops=%s" % format_number(self.ops),
            "seed=%d" % self.seed,
        ]
        for name in ("chunk", "objects", "stores", "zipf"):
            value = getattr(self, name)
            if value != self.DEFAULTS[name]:
                parts.append("%s=%s" % (name, format_number(value)))
        return "cdf(%s)" % ",".join(parts)

    def build(self, scale: float = 1.0) -> PackedTrace:
        target = max(1, int(self.ops * scale))
        rng = Random(self.seed)
        cdf = CDFS[self.distribution]

        # Object sizes in blocks, then contiguous base offsets.
        blocks = [
            max(1, _sample_size_kb(cdf, rng.random()) * 1024 // _LINE_BYTES)
            for _ in range(self.objects)
        ]
        bases = [0] * self.objects
        offset = 0
        for index, size in enumerate(blocks):
            bases[index] = offset
            offset += size

        # Zipf popularity over a shuffled rank order, so size and
        # popularity are independent draws.
        ranks = list(range(self.objects))
        rng.shuffle(ranks)
        weights = [0.0] * self.objects
        total = 0.0
        for obj, rank in enumerate(ranks):
            total += (rank + 1) ** -self.zipf
            weights[obj] = total

        addresses = array("q")
        kinds = array("b")
        gaps = array("q")
        cursors = [0] * self.objects
        emitted = 0
        while emitted < target:
            obj = min(
                bisect_left(weights, rng.random() * total),
                self.objects - 1,
            )
            size = blocks[obj]
            count = min(self.chunk, size, target - emitted)
            kind = STORE if rng.random() < self.stores else LOAD
            isolated = size <= ISOLATED_THRESHOLD_BLOCKS
            start = cursors[obj]
            for position in range(count):
                block = bases[obj] + (start + position) % size
                addresses.append((_BASE_BLOCK + block) * _LINE_BYTES)
                kinds.append(kind)
                gaps.append(
                    ISOLATING_GAP
                    if isolated or position == 0
                    else BURST_GAP
                )
            cursors[obj] = (start + count) % size
            emitted += count
        return PackedTrace.from_columns(addresses, kinds, gaps)


__all__ = ["CDFWorkload", "CDFS", "ISOLATED_THRESHOLD_BLOCKS"]
