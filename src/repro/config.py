"""Machine configuration for the baseline processor of Table 2.

The paper evaluates MLP-aware replacement on an eight-wide, out-of-order
Alpha-ISA machine with a 128-entry instruction window, a 1MB 16-way L2
cache, a 32-entry MSHR, and a detailed memory system (32 DRAM banks,
split-transaction bus at a 4:1 frequency ratio).  An isolated L2 miss takes
444 cycles to service: 400 cycles of memory access plus 44 cycles of bus
delay.

Every knob in this module corresponds to a row of Table 2 of the paper.
``baseline_config()`` returns the exact Table 2 machine; experiments that
need variations copy and modify it via :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache.

    Sizes are in bytes.  ``n_sets`` is derived, not stored, so a geometry
    can never be internally inconsistent.
    """

    size_bytes: int
    line_bytes: int
    associativity: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.line_bytes < 1 or self.associativity < 1:
            raise ValueError(
                "line size and associativity must be positive (%d, %d)"
                % (self.line_bytes, self.associativity)
            )
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ValueError(
                "cache size %d holds no set of %d*%d bytes"
                % (self.size_bytes, self.line_bytes, self.associativity)
            )
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache size %d is not a multiple of line*assoc (%d*%d)"
                % (self.size_bytes, self.line_bytes, self.associativity)
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def n_blocks(self) -> int:
        return self.n_sets * self.associativity


@dataclass(frozen=True)
class ProcessorConfig:
    """The out-of-order core of Table 2."""

    issue_width: int = 8
    window_size: int = 128
    store_buffer_size: int = 128
    min_branch_penalty: int = 15


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM and bus parameters of Table 2.

    ``dram_access_latency + bus_delay`` is the 444-cycle isolated-miss
    latency the paper quotes.  The 16-byte bus at a 4:1 frequency ratio
    moves a 64-byte line in 16 CPU cycles, which is the ``bus_occupancy``.

    ``row_buffer`` enables the open-page refinement (off by default:
    Table 2 specifies a flat 400-cycle access); ``row_hit_latency`` and
    ``row_blocks`` parameterize it.
    """

    n_banks: int = 32
    dram_access_latency: int = 400
    bus_delay: int = 44
    bus_occupancy: int = 16
    max_outstanding: int = 32
    row_buffer: bool = False
    row_hit_latency: int = 140
    row_blocks: int = 32

    @property
    def isolated_miss_latency(self) -> int:
        return self.dram_access_latency + self.bus_delay


@dataclass(frozen=True)
class MSHRConfig:
    """Miss Status Holding Register file (Section 3.1)."""

    n_entries: int = 32
    #: Number of adders shared round-robin among entries when computing
    #: mlp-cost.  The paper shows four adders suffice (footnote 3);
    #: ``0`` means one adder per entry (the idealized Algorithm 1).
    n_cost_adders: int = 0


@dataclass(frozen=True)
class MachineConfig:
    """Full Table 2 machine: core, cache hierarchy, MSHR, memory."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(16 * 1024, 64, 4, 2)
    )
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(16 * 1024, 64, 4, 2)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(1024 * 1024, 64, 16, 15)
    )
    mshr: MSHRConfig = field(default_factory=MSHRConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    @property
    def block_bits(self) -> int:
        return self.l2.line_bytes.bit_length() - 1


def baseline_config() -> MachineConfig:
    """Return the exact baseline machine of Table 2."""
    return MachineConfig()


def scaled_config(l2_kb: int = 1024) -> MachineConfig:
    """Return a Table 2 machine with a different L2 capacity.

    Used by sensitivity studies; associativity and line size stay at the
    paper's 16-way/64B.
    """
    base = baseline_config()
    return replace(
        base, l2=CacheGeometry(l2_kb * 1024, 64, 16, base.l2.hit_latency)
    )
