"""Trace persistence: one sniffing loader and an npz save.

Surrogate traces are deterministic, but saving them is useful for
sharing exact inputs across machines, for diffing generator versions,
and for feeding externally captured traces into the simulator.  The
native format is four parallel numpy arrays (address, kind, gap,
wrong_path) plus a format version, in a compressed ``.npz``.

Loading goes through one front door: :func:`open_trace` sniffs the
file's *content* — zip magic means the packed npz record format;
anything else routes to the streaming importers of
:mod:`repro.trace.importers` (ChampSim binary records vs
ChampSim-style vs valgrind-lackey text lines, also sniffed) — and
always returns a :class:`~repro.trace.packed.PackedTrace`.

numpy is imported inside the npz functions only: importing this module
(which every CLI does) must not pay numpy's import time and memory.
"""

from __future__ import annotations

import sys
from array import array

from repro.trace.packed import PackedTrace, pack_trace

#: Bump when the on-disk npz layout changes.
FORMAT_VERSION = 1

#: Zip local-file-header magic: every np.savez archive starts with it.
_ZIP_MAGIC = b"PK"


def save_trace(path: str, trace) -> None:
    """Write a trace to ``path`` (numpy .npz, compressed).

    ``trace`` is a :class:`~repro.trace.packed.PackedTrace` or any
    ``Access`` sequence (packed on entry).  The packed columns are
    written as they are: int64 addresses and gaps, int8 kinds, and the
    wrong-path bitset unpacked to one bool per record.
    """
    import numpy as np

    trace = pack_trace(trace)
    wrong = np.unpackbits(
        np.frombuffer(bytes(trace._wrong_bits), dtype=np.uint8),
        count=len(trace), bitorder="little",
    ).astype(bool)
    np.savez_compressed(
        path,
        version=np.int32(FORMAT_VERSION),
        address=np.frombuffer(trace._addresses, dtype=np.int64),
        kind=np.frombuffer(trace._kinds, dtype=np.int8),
        gap=np.frombuffer(trace._gaps, dtype=np.int64),
        wrong_path=wrong,
    )


def _load_columns(path: str):
    """Read and version-check the four parallel columns of a trace file."""
    import numpy as np

    with np.load(path) as data:
        version = int(data["version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                "trace file %s has format version %d; this build reads %d"
                % (path, version, FORMAT_VERSION)
            )
        return data["address"], data["kind"], data["gap"], data["wrong_path"]


def _i64_column(col) -> array:
    """A numpy integer column as a native ``array("q")``, bulk-copied.

    The old ``.astype(...).tolist()`` round-trip materialized one boxed
    Python int per record on every cold trace load; ``frombytes`` over
    the little-endian serialization is a straight buffer copy.
    """
    column = array("q")
    column.frombytes(col.astype("<i8", copy=False).tobytes())
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _load_packed_npz(path: str) -> PackedTrace:
    """The native npz record format, columns straight into a
    :class:`PackedTrace` (no ``Access`` objects materialized)."""
    import numpy as np

    addresses, kinds, gaps, wrong = _load_columns(path)
    n_wrong = int(np.count_nonzero(wrong))
    wrong_bits = None
    if n_wrong:
        # packbits(bitorder="little") is exactly the trace's LSB-first
        # bitset layout, trailing bits zero-padded.
        wrong_bits = bytearray(
            np.packbits(wrong.astype(bool), bitorder="little").tobytes()
        )
    kind_column = array("b")
    kind_column.frombytes(kinds.astype(np.int8, copy=False).tobytes())
    return PackedTrace.from_columns(
        _i64_column(addresses),
        kind_column,
        _i64_column(gaps),
        wrong_bits,
        n_wrong,
    )


def open_trace(path: str) -> PackedTrace:
    """Load any supported trace file as a :class:`PackedTrace`.

    Format detection is by content, never by extension:

    * zip magic (``PK``) — the native :func:`save_trace` npz layout;
    * NUL bytes in the (decompressed) head — ChampSim's binary
      64-byte ``input_instr`` records;
    * anything else — a text trace, possibly gzip/xz-compressed
      (magic-sniffed), in ChampSim-style or valgrind-lackey line
      format (first-lines-sniffed).

    Files come from outside the package, so every path re-validates
    the columns in bulk before returning.
    """
    with open(path, "rb") as handle:
        magic = handle.read(2)
    if magic == _ZIP_MAGIC:
        return _load_packed_npz(path)
    from repro.trace import importers

    if importers.sniff_binary_champsim(path):
        return importers.load_champsim_binary(path)
    if importers.sniff_text_format(path) == "lackey":
        return importers.load_lackey(path)
    return importers.load_champsim(path)
