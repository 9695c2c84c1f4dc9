"""Access records: the unit of work fed to the simulator.

The simulator is trace driven.  A trace is a list of :class:`Access`
records in program order.  Non-memory instructions are not materialized;
each access instead records how many of them precede it (``gap``).  This
keeps traces small while preserving exactly the information the window
model of :mod:`repro.cpu.window` needs: instruction indices and the
ordering of memory operations.
"""

from __future__ import annotations

from typing import Iterable, List

#: Access kinds.  Plain ints (not an Enum) because the simulator touches
#: them on every record and Enum attribute access is measurably slower.
LOAD = 0
STORE = 1
IFETCH = 2

_KIND_NAMES = {LOAD: "load", STORE: "store", IFETCH: "ifetch"}


def kind_name(kind: int) -> str:
    """Human-readable name of an access kind."""
    return _KIND_NAMES[kind]


def validate_access_fields(address: int, kind: int, gap: int) -> None:
    """Reject field values no :class:`Access` may carry.

    Validation lives here — not in ``Access.__init__`` — so the bulk
    synthesis paths (:class:`~repro.trace.synthetic.TraceBuilder`, the
    surrogate engine, :meth:`~repro.trace.packed.PackedTrace.from_accesses`)
    pay for it once per entry point instead of once per record.
    Anything that accepts records from *outside* the package (builders,
    file loaders, packed-column construction) must call it.
    """
    if gap < 0:
        raise ValueError("gap must be non-negative, got %d" % gap)
    if kind not in _KIND_NAMES:
        raise ValueError("unknown access kind %r" % (kind,))
    if address < 0:
        raise ValueError("address must be non-negative, got %d" % address)


class Access:
    """One memory access in program order.

    Attributes:
        gap: number of non-memory instructions executed since the previous
            access (the access itself is one more instruction).
        kind: one of :data:`LOAD`, :data:`STORE`, :data:`IFETCH`.
        address: byte address touched.
        wrong_path: whether the access was issued down a mispredicted
            path.  Wrong-path accesses occupy memory-system resources but
            are excluded from demand-miss accounting (Section 3.1).

    The constructor is deliberately bare assignment: traces run to
    hundreds of thousands of records and the synthesis loops construct
    one ``Access`` each, so field validation happens at the trace entry
    points via :func:`validate_access_fields` instead of per record.
    """

    __slots__ = ("gap", "kind", "address", "wrong_path")

    def __init__(
        self,
        address: int,
        kind: int = LOAD,
        gap: int = 0,
        wrong_path: bool = False,
    ) -> None:
        self.address = address
        self.kind = kind
        self.gap = gap
        self.wrong_path = wrong_path

    def __repr__(self) -> str:
        flag = " wrong-path" if self.wrong_path else ""
        return "Access(%s 0x%x gap=%d%s)" % (
            kind_name(self.kind),
            self.address,
            self.gap,
            flag,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Access):
            return NotImplemented
        return (
            self.address == other.address
            and self.kind == other.kind
            and self.gap == other.gap
            and self.wrong_path == other.wrong_path
        )


Trace = List[Access]


def memory_footprint_blocks(trace: Iterable[Access], line_bytes: int = 64) -> int:
    """Number of distinct cache blocks a trace touches."""
    return len({access.address // line_bytes for access in trace})
