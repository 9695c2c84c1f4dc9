"""Packed column-oriented traces.

A list of :class:`~repro.trace.record.Access` objects costs one Python
object (plus four boxed attributes) per record; at the 10\\ :sup:`5`\\ –
10\\ :sup:`6` records the macro benchmarks replay, the allocator traffic
and per-record attribute loads are a measurable slice of kernel time,
and the resident footprint is ~10x the information content.
:class:`PackedTrace` stores the same records as four parallel columns —
the object-vs-column tradeoff trace tools resolve the same way:

* ``address`` — signed 64-bit :mod:`array` column (``"q"``),
* ``kind`` — signed 8-bit column (``"b"``),
* ``gap`` — signed 64-bit column (``"q"``; gaps are unbounded because
  :meth:`TraceBuilder.quiet` can inflate them arbitrarily),
* wrong-path — a bit per record in a :class:`bytearray` bitset
  (LSB-first within each byte).

The packed form is a drop-in sequence of ``Access`` objects
(``__iter__``/``__getitem__``/``__len__`` materialize records lazily),
so the generic simulator loop and every analysis helper accept it
unchanged.  The native replay kernel (:mod:`repro.sim.native`) instead
reads the three ``array`` columns in place through the buffer
protocol, without building a single ``Access``.

Validation is *bulk*: :meth:`from_accesses` checks whole columns with
C-speed byte scans instead of three compares per record
(see :func:`repro.trace.record.validate_access_fields`).

:meth:`content_digest` hashes a canonical little-endian serialization
of the columns, so two traces with equal records digest identically on
any host — the persistent store and the bench ``--check`` mode key on
this.
"""

from __future__ import annotations

import sys
from array import array
from hashlib import sha256
from itertools import repeat
from typing import Iterable, Iterator, Sequence, Tuple

from repro.trace.record import IFETCH, LOAD, STORE, Access, Trace

#: Bump when the canonical digest serialization changes.
DIGEST_FORMAT = "repro.trace.packed/v1"

_VALID_KINDS = frozenset((LOAD, STORE, IFETCH))
_VALID_KIND_BYTES = bytes(sorted(_VALID_KINDS))
_NON_NEGATIVE_BYTES = bytes(range(128))


def _has_negative(column: array) -> bool:
    """Whether a signed integer column holds a negative value.

    Reads only the sign byte of each item (the last byte of a
    little-endian item, the first of a big-endian one) and deletes the
    non-negative ones: C-speed byte operations, no per-item ints.
    """
    size = column.itemsize
    start = size - 1 if sys.byteorder == "little" else 0
    signs = memoryview(column).cast("B")[start::size].tobytes()
    return bool(signs.translate(None, _NON_NEGATIVE_BYTES))


def _canonical_bytes(column: array) -> bytes:
    """Column bytes in little-endian order regardless of host."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


class PackedTrace:
    """An immutable-by-convention trace stored as parallel columns.

    Build one with :meth:`from_accesses`; mutating the underlying
    columns afterwards invalidates the cached digest and is not
    supported.
    """

    __slots__ = (
        "_addresses", "_kinds", "_gaps", "_wrong_bits", "_n_wrong",
        "_wrong_flags", "_digest",
    )

    def __init__(
        self,
        addresses: array,
        kinds: array,
        gaps: array,
        wrong_bits: bytearray,
        n_wrong: int,
    ) -> None:
        if not (len(addresses) == len(kinds) == len(gaps)):
            raise ValueError("column lengths disagree")
        if len(wrong_bits) != (len(addresses) + 7) // 8:
            raise ValueError("wrong-path bitset has the wrong size")
        self._addresses = addresses
        self._kinds = kinds
        self._gaps = gaps
        self._wrong_bits = wrong_bits
        self._n_wrong = n_wrong
        self._wrong_flags = None
        self._digest = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        addresses: array,
        kinds: array,
        gaps: array,
        wrong_bits: "bytearray | None" = None,
        n_wrong: int = 0,
    ) -> "PackedTrace":
        """Build a trace from raw columns, validated.

        Every construction site outside this module must go through
        here (or :meth:`from_accesses`): it runs the bulk column
        validation *and* cross-checks the wrong-path bitset against
        ``n_wrong``, including the trailing-zero invariant the content
        digest depends on.  ``wrong_bits=None`` means no wrong-path
        records (a fresh zeroed bitset is allocated).
        """
        n = len(addresses)
        if wrong_bits is None:
            if n_wrong:
                raise ValueError(
                    "n_wrong=%d without a wrong-path bitset" % n_wrong
                )
            wrong_bits = bytearray((n + 7) // 8)
        packed = cls(addresses, kinds, gaps, wrong_bits, n_wrong)
        if n & 7 and wrong_bits and wrong_bits[-1] >> (n & 7):
            raise ValueError(
                "wrong-path bitset has bits set past the last record"
            )
        if int.from_bytes(bytes(wrong_bits), "little").bit_count() != n_wrong:
            raise ValueError("n_wrong disagrees with the wrong-path bitset")
        packed.validate()
        return packed

    @classmethod
    def from_accesses(cls, accesses: Iterable[Access]) -> "PackedTrace":
        """Pack a sequence of ``Access`` records into columns.

        Field validation is performed on the finished columns in bulk
        (O(n) C-level byte scans), not per record.
        """
        if not isinstance(accesses, Sequence):
            accesses = list(accesses)
        n = len(accesses)
        addresses = array("q")
        kinds = array("b")
        gaps = array("q")
        wrong_bits = bytearray((n + 7) // 8)
        n_wrong = 0
        append_address = addresses.append
        append_kind = kinds.append
        append_gap = gaps.append
        for index, access in enumerate(accesses):
            append_address(access.address)
            append_kind(access.kind)
            append_gap(access.gap)
            if access.wrong_path:
                wrong_bits[index >> 3] |= 1 << (index & 7)
                n_wrong += 1
        packed = cls(addresses, kinds, gaps, wrong_bits, n_wrong)
        packed.validate()
        return packed

    def validate(self) -> None:
        """Bulk-validate the columns (C-level byte scans, O(n) total).

        Raises :exc:`ValueError` on any field no ``Access`` may carry —
        the columnar equivalent of
        :func:`repro.trace.record.validate_access_fields`.
        """
        if not self._addresses:
            return
        if _has_negative(self._addresses):
            raise ValueError("addresses must be non-negative")
        if _has_negative(self._gaps):
            raise ValueError("gaps must be non-negative")
        if self._kinds.tobytes().translate(None, _VALID_KIND_BYTES):
            bad_kinds = set(self._kinds) - _VALID_KINDS
            raise ValueError("unknown access kinds %r" % sorted(bad_kinds))

    def to_accesses(self) -> Trace:
        """Materialize the packed records back into ``Access`` objects."""
        return list(self)

    def slice(self, start: int, stop: int) -> "PackedTrace":
        """A new trace holding records ``[start, stop)`` (column copy).

        The workload composition operators (clip, interleave) are built
        on this; slicing stays at C speed because ``array`` slicing
        copies whole buffers.  Indices clamp like list slicing.
        """
        n = len(self._addresses)
        start = max(0, min(n, start))
        stop = max(start, min(n, stop))
        addresses = self._addresses[start:stop]
        kinds = self._kinds[start:stop]
        gaps = self._gaps[start:stop]
        count = stop - start
        n_wrong = 0
        if self._n_wrong and start & 7 == 0:
            # Byte-aligned start: splice the bitset at C speed.  The
            # last byte may carry bits past ``count`` (records beyond
            # ``stop``); mask them off to preserve the trailing-zero
            # invariant the content digest depends on.
            wrong_bits = bytearray(
                self._wrong_bits[start >> 3:(start + count + 7) >> 3]
            )
            if count & 7 and wrong_bits:
                wrong_bits[-1] &= (1 << (count & 7)) - 1
            n_wrong = int.from_bytes(bytes(wrong_bits), "little").bit_count()
        else:
            wrong_bits = bytearray((count + 7) // 8)
            if self._n_wrong:
                bits = self._wrong_bits
                for offset in range(count):
                    index = start + offset
                    if bits[index >> 3] >> (index & 7) & 1:
                        wrong_bits[offset >> 3] |= 1 << (offset & 7)
                        n_wrong += 1
        return PackedTrace(addresses, kinds, gaps, wrong_bits, n_wrong)

    @classmethod
    def concatenate(cls, traces: Sequence["PackedTrace"]) -> "PackedTrace":
        """Join traces end to end into one new trace.

        Columns extend buffer-to-buffer; the wrong-path bitset only
        needs per-record work for the (rare) traces that carry
        wrong-path records.
        """
        addresses = array("q")
        kinds = array("b")
        gaps = array("q")
        total = sum(len(trace) for trace in traces)
        wrong_bits = bytearray((total + 7) // 8)
        n_wrong = 0
        base = 0
        for trace in traces:
            if not isinstance(trace, PackedTrace):
                trace = PackedTrace.from_accesses(trace)
            addresses.extend(trace._addresses)
            kinds.extend(trace._kinds)
            gaps.extend(trace._gaps)
            if trace._n_wrong:
                bits = trace._wrong_bits
                if base & 7 == 0:
                    # Byte-aligned destination: splice at C speed.  The
                    # source's trailing bits are zero by invariant, and
                    # every position past ``base`` is still zero in the
                    # destination, so plain assignment is exact; later
                    # unaligned traces OR on top of those zeros.
                    wrong_bits[base >> 3:(base >> 3) + len(bits)] = bits
                    n_wrong += trace._n_wrong
                else:
                    for offset in range(len(trace)):
                        if bits[offset >> 3] >> (offset & 7) & 1:
                            index = base + offset
                            wrong_bits[index >> 3] |= 1 << (index & 7)
                            n_wrong += 1
            base += len(trace)
        return cls(addresses, kinds, gaps, wrong_bits, n_wrong)

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._addresses)

    def wrong_path(self, index: int) -> bool:
        """Whether record ``index`` is wrong-path.

        ``index`` must be a plain ``int`` in ``[0, len(self))``.
        Negative indices raise :exc:`IndexError` rather than silently
        wrapping through the *bitset* (which is 8x shorter than the
        trace, so ``-1`` used to read the flag of a record near the
        end of the first byte-group instead of the last record), and
        ``bool`` is rejected like any other non-``int``.
        """
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError("PackedTrace indices must be integers")
        if not 0 <= index < len(self._addresses):
            raise IndexError("trace index out of range")
        return bool(self._wrong_bits[index >> 3] >> (index & 7) & 1)

    @property
    def wrong_path_count(self) -> int:
        """Number of wrong-path records in the trace."""
        return self._n_wrong

    def __getitem__(self, index: int) -> Access:
        # bool is an int subclass; reject it explicitly so that e.g.
        # ``trace[True]`` (a likely logic bug) cannot read record 1.
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError("PackedTrace indices must be integers")
        n = len(self._addresses)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("trace index out of range")
        return Access(
            self._addresses[index],
            self._kinds[index],
            self._gaps[index],
            self.wrong_path(index),
        )

    def __iter__(self) -> Iterator[Access]:
        for address, kind, gap, wrong in self.iter_tuples():
            yield Access(address, kind, gap, bool(wrong))

    def iter_tuples(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate ``(address, kind, gap, wrong_path)`` tuples.

        No ``Access`` objects are materialized.  ``wrong_path`` is a
        truthy/falsy int.  When the trace has no wrong-path records
        (the common case) the flag column is a constant zero stream
        rather than an expanded bitset.
        """
        if self._n_wrong == 0:
            flags: Iterable[int] = repeat(0)
        else:
            flags = self._expand_wrong_flags()
        return zip(self._addresses, self._kinds, self._gaps, flags)

    def _expand_wrong_flags(self) -> array:
        """Expand the bitset into a cached byte-per-record flag column."""
        flags = self._wrong_flags
        if flags is None:
            bits = self._wrong_bits
            flags = array(
                "b",
                (
                    bits[index >> 3] >> (index & 7) & 1
                    for index in range(len(self._addresses))
                ),
            )
            self._wrong_flags = flags
        return flags

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (
            self._addresses == other._addresses
            and self._kinds == other._kinds
            and self._gaps == other._gaps
            and self._wrong_bits == other._wrong_bits
        )

    def content_digest(self) -> str:
        """Deterministic hex digest of the trace content.

        The digest covers a canonical little-endian serialization of
        every column plus the record count, so it is stable across
        hosts, byte orders, and Python versions; equal record sequences
        always digest equally.
        """
        digest = self._digest
        if digest is None:
            hasher = sha256()
            hasher.update(DIGEST_FORMAT.encode("ascii"))
            hasher.update(len(self._addresses).to_bytes(8, "little"))
            hasher.update(_canonical_bytes(self._addresses))
            hasher.update(_canonical_bytes(self._kinds))
            hasher.update(_canonical_bytes(self._gaps))
            hasher.update(bytes(self._wrong_bits))
            digest = hasher.hexdigest()
            self._digest = digest
        return digest

    # -- accounting ---------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident bytes of the packed columns (not counting Python
        object headers)."""
        return (
            self._addresses.itemsize * len(self._addresses)
            + self._kinds.itemsize * len(self._kinds)
            + self._gaps.itemsize * len(self._gaps)
            + len(self._wrong_bits)
        )

    def total_instructions(self) -> int:
        """Dynamic instructions the trace represents (column-speed
        version of :func:`repro.trace.record.total_instructions`)."""
        total = sum(self._gaps) + len(self._gaps)
        if self._n_wrong:
            for index in range(len(self._addresses)):
                if self._wrong_bits[index >> 3] >> (index & 7) & 1:
                    total -= self._gaps[index] + 1
        return total

    def __repr__(self) -> str:
        return "PackedTrace(%d records, %d wrong-path, %d bytes)" % (
            len(self._addresses), self._n_wrong, self.nbytes
        )


def pack_trace(trace) -> PackedTrace:
    """Coerce ``trace`` to a :class:`PackedTrace` (no-op when packed)."""
    if isinstance(trace, PackedTrace):
        return trace
    return PackedTrace.from_accesses(trace)


__all__ = ["PackedTrace", "pack_trace", "DIGEST_FORMAT"]
