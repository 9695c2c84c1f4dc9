"""Trace substrate: access records and synthetic trace construction.

A *trace* is a :class:`~repro.trace.packed.PackedTrace`: parallel
columns of access records.  A sequence of
:class:`~repro.trace.record.Access` objects is packed into one where it
enters the simulator, the oracle or a file.  Each access carries the
number of non-memory instructions that precede it (``gap``), so a
trace compactly represents a full dynamic instruction stream without
storing every ALU instruction.
"""

from repro.trace.record import (
    IFETCH,
    LOAD,
    STORE,
    Access,
    Trace,
    kind_name,
    validate_access_fields,
)
from repro.trace.synthetic import (
    TraceBuilder,
    interleave,
    pointer_chase,
    random_working_set,
    strided_stream,
)
from repro.trace.figure1 import figure1_trace, FIGURE1_BLOCKS
from repro.trace.packed import PackedTrace, pack_trace
from repro.trace.trace_io import open_trace, save_trace

__all__ = [
    "Access",
    "Trace",
    "PackedTrace",
    "pack_trace",
    "LOAD",
    "STORE",
    "IFETCH",
    "kind_name",
    "TraceBuilder",
    "strided_stream",
    "pointer_chase",
    "random_working_set",
    "interleave",
    "figure1_trace",
    "FIGURE1_BLOCKS",
    "save_trace",
    "open_trace",
    "validate_access_fields",
]
