"""Tests for trace records, synthetic primitives, and the Figure 1 loop."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.figure1 import (
    FIGURE1_BLOCKS,
    FIGURE1_PATTERN,
    block_names,
    figure1_trace,
)
from repro.trace.record import (
    IFETCH,
    LOAD,
    STORE,
    Access,
    kind_name,
    memory_footprint_blocks,
    total_instructions,
    validate_access_fields,
)
from repro.trace.packed import PackedTrace, pack_trace
from repro.trace.synthetic import (
    BURST_GAP,
    ISOLATING_GAP,
    TraceBuilder,
    interleave,
    pointer_chase,
    random_working_set,
    repeat_trace,
    strided_stream,
)


class TestAccess:
    def test_fields(self):
        access = Access(0x1000, STORE, gap=7)
        assert access.address == 0x1000
        assert access.kind == STORE
        assert access.gap == 7
        assert not access.wrong_path

    def test_rejects_negative_gap(self):
        # Validation lives at the trace entry points now, not in the
        # Access constructor (bulk synthesis pays it once per record
        # otherwise).
        with pytest.raises(ValueError):
            TraceBuilder().access(0, LOAD, gap=-1)
        with pytest.raises(ValueError):
            validate_access_fields(0, LOAD, -1)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TraceBuilder().access(0, kind=99)
        with pytest.raises(ValueError):
            validate_access_fields(0, 99, 0)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            TraceBuilder().access(-1)
        with pytest.raises(ValueError):
            validate_access_fields(-64, LOAD, 0)

    def test_equality(self):
        assert Access(64, LOAD, 3) == Access(64, LOAD, 3)
        assert Access(64, LOAD, 3) != Access(64, STORE, 3)

    def test_kind_names(self):
        assert kind_name(LOAD) == "load"
        assert kind_name(STORE) == "store"
        assert kind_name(IFETCH) == "ifetch"

    def test_repr_mentions_wrong_path(self):
        assert "wrong-path" in repr(Access(0, LOAD, 0, wrong_path=True))


class TestTraceHelpers:
    def test_total_instructions_counts_gaps_and_accesses(self):
        trace = [Access(0, LOAD, 10), Access(64, LOAD, 5)]
        assert total_instructions(trace) == 17

    def test_total_instructions_skips_wrong_path(self):
        trace = [Access(0, LOAD, 10), Access(64, LOAD, 5, wrong_path=True)]
        assert total_instructions(trace) == 11

    def test_memory_footprint(self):
        trace = [Access(0), Access(32), Access(64), Access(128)]
        assert memory_footprint_blocks(trace) == 3  # 0,32 share a block


class TestTraceBuilder:
    def test_access_scales_block_to_address(self):
        trace = TraceBuilder().access(5).build()
        assert trace[0].address == 5 * 64

    def test_burst_gaps(self):
        trace = TraceBuilder().burst([1, 2, 3], lead_gap=100).build()
        assert [a.gap for a in trace] == [100, BURST_GAP, BURST_GAP]

    def test_isolated_uses_isolating_gap(self):
        trace = TraceBuilder().isolated(9).build()
        assert trace[0].gap == ISOLATING_GAP
        assert ISOLATING_GAP > 128  # larger than the window

    def test_quiet_folds_into_next_access(self):
        trace = TraceBuilder().quiet(500).access(1, gap=4).build()
        assert trace[0].gap == 504

    def test_quiet_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceBuilder().quiet(-1)

    def test_build_resets(self):
        builder = TraceBuilder()
        builder.access(1)
        assert len(builder.build()) == 1
        assert builder.build() == []


class TestGenerators:
    def test_strided_stream_addresses(self):
        trace = strided_stream(10, 4, burst=2)
        blocks = [a.address // 64 for a in trace]
        assert blocks == [10, 11, 12, 13]

    def test_strided_stream_burst_boundaries(self):
        trace = strided_stream(0, 6, burst=3, lead_gap=200, intra_gap=1)
        assert [a.gap for a in trace] == [200, 1, 1, 200, 1, 1]

    def test_pointer_chase_is_isolated(self):
        trace = pointer_chase([1, 2, 3])
        assert all(a.gap == ISOLATING_GAP for a in trace)

    def test_random_working_set_stays_in_pool(self):
        rng = random.Random(1)
        pool = [3, 5, 7]
        trace = random_working_set(rng, pool, 50)
        assert {a.address // 64 for a in trace} <= set(pool)

    def test_random_working_set_store_fraction(self):
        rng = random.Random(1)
        trace = random_working_set(rng, [1], 500, store_fraction=0.5)
        stores = sum(1 for a in trace if a.kind == STORE)
        assert 150 < stores < 350

    def test_interleave_preserves_order(self):
        rng = random.Random(2)
        left = [Access(i * 64) for i in range(10)]
        right = [Access((100 + i) * 64) for i in range(10)]
        merged = interleave(rng, left, right)
        assert len(merged) == 20
        left_order = [a for a in merged if a.address < 100 * 64]
        assert left_order == left

    def test_repeat_trace(self):
        trace = [Access(0), Access(64)]
        assert len(repeat_trace(trace, 3)) == 6
        assert repeat_trace(trace, 0) == []


def _packable_accesses():
    """Arbitrary valid records, including wrong-path bits and big gaps."""
    return st.lists(
        st.builds(
            Access,
            st.integers(min_value=0, max_value=2**62),
            st.sampled_from([LOAD, STORE, IFETCH]),
            st.integers(min_value=0, max_value=10**9),
            st.booleans(),
        ),
        max_size=150,
    )


class TestPackedTrace:
    @settings(max_examples=120, deadline=None)
    @given(accesses=_packable_accesses())
    def test_roundtrip_is_exact(self, accesses):
        packed = PackedTrace.from_accesses(accesses)
        assert len(packed) == len(accesses)
        # Exact record-for-record round trip: addresses, kinds, gaps,
        # AND wrong-path bits (Access.__eq__ compares all four).
        assert packed.to_accesses() == accesses
        assert packed.wrong_path_count == sum(
            1 for a in accesses if a.wrong_path
        )
        for index, access in enumerate(accesses):
            assert packed[index] == access
            assert packed.wrong_path(index) == access.wrong_path

    @settings(max_examples=60, deadline=None)
    @given(accesses=_packable_accesses())
    def test_iter_tuples_matches_records(self, accesses):
        packed = PackedTrace.from_accesses(accesses)
        tuples = list(packed.iter_tuples())
        assert len(tuples) == len(accesses)
        for (address, kind, gap, wrong), access in zip(tuples, accesses):
            assert (address, kind, gap, bool(wrong)) == (
                access.address, access.kind, access.gap, access.wrong_path
            )

    @settings(max_examples=60, deadline=None)
    @given(accesses=_packable_accesses())
    def test_digest_depends_only_on_content(self, accesses):
        first = PackedTrace.from_accesses(accesses)
        second = PackedTrace.from_accesses(list(accesses))
        assert first == second
        assert first.content_digest() == second.content_digest()
        assert first.total_instructions() == sum(
            a.gap + 1 for a in accesses if not a.wrong_path
        )

    def test_digest_sees_wrong_path_bits(self):
        plain = PackedTrace.from_accesses([Access(64, LOAD, 3)])
        flagged = PackedTrace.from_accesses(
            [Access(64, LOAD, 3, wrong_path=True)]
        )
        assert plain != flagged
        assert plain.content_digest() != flagged.content_digest()

    def test_negative_indexing_and_bounds(self):
        packed = PackedTrace.from_accesses([Access(0), Access(64)])
        assert packed[-1] == Access(64)
        with pytest.raises(IndexError):
            packed[2]
        with pytest.raises(TypeError):
            packed["0"]

    def test_bulk_validation_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            PackedTrace.from_accesses([Access(-64)])
        with pytest.raises(ValueError):
            PackedTrace.from_accesses([Access(0, LOAD, -1)])
        with pytest.raises(ValueError):
            PackedTrace.from_accesses([Access(0, 17)])

    def test_pack_trace_is_idempotent(self):
        packed = pack_trace([Access(0), Access(64)])
        assert pack_trace(packed) is packed

    def test_empty_trace(self):
        packed = PackedTrace.from_accesses([])
        assert len(packed) == 0
        assert packed.to_accesses() == []
        assert packed.total_instructions() == 0
        packed.validate()  # empty columns are trivially valid


class TestWrongPathIndexing:
    """Regressions for the wrong-path bitset indexing fixes.

    ``wrong_path(-1)`` used to wrap through the *bitset* (8x shorter
    than the trace): ``bits[-1 >> 3]`` read the last byte and
    ``>> (-1 & 7)`` its top bit, i.e. the flag of whichever record
    happens to sit at position ``8 * len(bits) - 1`` — not the last
    record.  ``trace[True]`` used to read record 1 because ``bool`` is
    an ``int`` subclass.  Both are rejected now.
    """

    @staticmethod
    def _trace(n=12, flagged=(3,)):
        return PackedTrace.from_accesses([
            Access(64 * i, LOAD, 0, wrong_path=(i in flagged))
            for i in range(n)
        ])

    def test_wrong_path_rejects_negative_index(self):
        # 12 records / flag on record 3: the pre-fix wrap read bit 7 of
        # the last bitset byte (record 15's slot) and returned False
        # without complaint; record -1 must be an error, not a guess.
        packed = self._trace()
        with pytest.raises(IndexError):
            packed.wrong_path(-1)
        with pytest.raises(IndexError):
            packed.wrong_path(-12)

    def test_wrong_path_rejects_bool_and_non_int(self):
        packed = self._trace()
        with pytest.raises(TypeError):
            packed.wrong_path(True)
        with pytest.raises(TypeError):
            packed.wrong_path(3.0)

    def test_getitem_rejects_bool(self):
        # trace[True] is a likely logic bug (e.g. trace[flag]); it must
        # not silently read record 1.
        packed = self._trace()
        with pytest.raises(TypeError):
            packed[True]
        with pytest.raises(TypeError):
            packed[False]

    def test_getitem_negative_wrap_reads_correct_wrong_path_flag(self):
        # The last record's flag lives in the *second* bitset byte; a
        # bitset-relative wrap would look at the wrong byte entirely.
        packed = self._trace(n=12, flagged=(11,))
        assert packed[-1].wrong_path is True
        assert packed[-2].wrong_path is False
        assert packed[11] == packed[-1]

    def test_wrong_path_in_bounds_still_works(self):
        packed = self._trace(n=12, flagged=(0, 3, 9))
        flags = [packed.wrong_path(i) for i in range(12)]
        assert [i for i, f in enumerate(flags) if f] == [0, 3, 9]


class TestFromColumns:
    """The shared validating constructor every importer must use."""

    @staticmethod
    def _columns(n=5):
        from array import array
        return (
            array("q", [64 * i for i in range(n)]),
            array("b", [LOAD] * n),
            array("q", [0] * n),
        )

    def test_round_trips_valid_columns(self):
        addresses, kinds, gaps = self._columns()
        packed = PackedTrace.from_columns(addresses, kinds, gaps)
        assert len(packed) == 5
        assert packed.wrong_path_count == 0
        assert packed.to_accesses() == [
            Access(64 * i, LOAD, 0) for i in range(5)
        ]

    def test_rejects_n_wrong_without_bitset(self):
        addresses, kinds, gaps = self._columns()
        with pytest.raises(ValueError, match="n_wrong"):
            PackedTrace.from_columns(addresses, kinds, gaps, None, 1)

    def test_rejects_n_wrong_bitset_disagreement(self):
        addresses, kinds, gaps = self._columns()
        with pytest.raises(ValueError, match="disagrees"):
            PackedTrace.from_columns(
                addresses, kinds, gaps, bytearray([0b1]), 2
            )

    def test_rejects_bits_past_the_last_record(self):
        # 5 records: bits 5..7 of the single bitset byte must be zero
        # (the content digest hashes the raw bitset bytes).
        addresses, kinds, gaps = self._columns()
        with pytest.raises(ValueError, match="past the last record"):
            PackedTrace.from_columns(
                addresses, kinds, gaps, bytearray([0b100000]), 1
            )

    def test_rejects_invalid_column_values(self):
        from array import array
        with pytest.raises(ValueError):
            PackedTrace.from_columns(
                array("q", [-64]), array("b", [LOAD]), array("q", [0])
            )
        with pytest.raises(ValueError):
            PackedTrace.from_columns(
                array("q", [64]), array("b", [99]), array("q", [0])
            )
        with pytest.raises(ValueError):
            PackedTrace.from_columns(
                array("q", [64]), array("b", [LOAD]), array("q", [-1])
            )
        # Validation reads sign bytes: extremes either side of zero,
        # with the offender mid-column.
        extremes = array("q", [2**63 - 1, 0, -(2**63), 255])
        for addresses, gaps in ((extremes, [0] * 4), ([64] * 4, extremes)):
            with pytest.raises(ValueError, match="non-negative"):
                PackedTrace.from_columns(
                    array("q", addresses), array("b", [LOAD] * 4),
                    array("q", gaps),
                )
        with pytest.raises(ValueError, match=r"\[-1, 99\]"):
            PackedTrace.from_columns(
                array("q", [0, 64, 128]), array("b", [99, LOAD, -1]),
                array("q", [0] * 3),
            )
        PackedTrace.from_columns(
            array("q", [2**63 - 1, 0]), array("b", [STORE, IFETCH]),
            array("q", [2**63 - 1, 0]),
        )

    def test_rejects_mismatched_column_lengths(self):
        from array import array
        with pytest.raises(ValueError):
            PackedTrace.from_columns(
                array("q", [64, 128]), array("b", [LOAD]), array("q", [0])
            )


class TestSliceConcatenateProperties:
    """Property tests over the aligned-bytes fast paths.

    ``slice`` splices the wrong-path bitset at C speed when the start
    is byte-aligned and ``concatenate`` when the destination base is;
    both must agree bit-for-bit (including the trailing-zero invariant
    the content digest depends on) with the per-record slow path and
    with packing the equivalent ``Access`` list from scratch.
    """

    @settings(max_examples=120, deadline=None)
    @given(accesses=_packable_accesses(), data=st.data())
    def test_slice_matches_list_slicing(self, accesses, data):
        packed = PackedTrace.from_accesses(accesses)
        n = len(accesses)
        start = data.draw(st.integers(min_value=-3, max_value=n + 3))
        stop = data.draw(st.integers(min_value=-3, max_value=n + 3))
        sliced = packed.slice(start, stop)
        clamped_start = max(0, min(n, start))
        clamped_stop = max(clamped_start, min(n, stop))
        expected = accesses[clamped_start:clamped_stop]
        assert sliced.to_accesses() == expected
        assert sliced.wrong_path_count == sum(
            1 for a in expected if a.wrong_path
        )
        # Digest equality is the strong form: it sees the raw bitset
        # bytes, so a stray bit past the last record would show here
        # even though record-level reads mask it.
        assert (sliced.content_digest()
                == PackedTrace.from_accesses(expected).content_digest())

    @settings(max_examples=80, deadline=None)
    @given(chunks=st.lists(_packable_accesses(), max_size=4))
    def test_concatenate_matches_list_concat(self, chunks):
        traces = [PackedTrace.from_accesses(chunk) for chunk in chunks]
        joined = PackedTrace.concatenate(traces)
        expected = [access for chunk in chunks for access in chunk]
        assert joined.to_accesses() == expected
        assert joined.wrong_path_count == sum(
            1 for a in expected if a.wrong_path
        )
        assert (joined.content_digest()
                == PackedTrace.from_accesses(expected).content_digest())

    def test_aligned_slice_masks_trailing_source_bits(self):
        # Deterministic pre-fix failure: byte-aligned start, unaligned
        # count, and a wrong-path bit just past ``stop`` — the spliced
        # last byte used to keep that bit, corrupting the digest.
        accesses = [
            Access(64 * i, LOAD, 0, wrong_path=(i == 11))
            for i in range(16)
        ]
        packed = PackedTrace.from_accesses(accesses)
        sliced = packed.slice(8, 11)  # record 11's flag is in-byte
        assert sliced.wrong_path_count == 0
        assert (sliced.content_digest()
                == PackedTrace.from_accesses(accesses[8:11]).content_digest())

    def test_unaligned_concat_after_aligned_splice(self):
        # An aligned first chunk followed by unaligned ORing chunks.
        first = [Access(64 * i, LOAD, 0, wrong_path=(i % 5 == 0))
                 for i in range(11)]
        second = [Access(64 * i, STORE, 1, wrong_path=(i % 3 == 0))
                  for i in range(7)]
        joined = PackedTrace.concatenate([
            PackedTrace.from_accesses(first),
            PackedTrace.from_accesses(second),
        ])
        expected = PackedTrace.from_accesses(first + second)
        assert joined == expected
        assert joined.content_digest() == expected.content_digest()


class TestTraceIoRoundTrip:
    """The npz loader must preserve content digests bit-for-bit."""

    def test_npz_roundtrip_preserves_content_digest(self, tmp_path):
        from repro.trace.trace_io import load_packed_trace, save_trace
        accesses = [
            Access(64 * i, [LOAD, STORE, IFETCH][i % 3], gap=i % 9,
                   wrong_path=(i % 7 == 0))
            for i in range(100)
        ]
        packed = PackedTrace.from_accesses(accesses)
        path = str(tmp_path / "trace.npz")
        save_trace(path, packed)
        loaded = load_packed_trace(path)
        assert loaded == packed
        assert loaded.wrong_path_count == packed.wrong_path_count
        assert loaded.content_digest() == packed.content_digest()

    def test_champsim_fixture_digest_survives_npz_roundtrip(self, tmp_path):
        # The committed ChampSim fixture through the full pipeline:
        # text import -> npz save -> bulk frombytes load must keep the
        # content digest (the persistent store and bench --check key
        # on it).
        import pathlib
        from repro.trace.trace_io import (
            load_packed_trace, open_trace, save_trace,
        )
        fixture = str(
            pathlib.Path(__file__).parent / "fixtures" / "mix4k.champsim.gz"
        )
        imported = open_trace(fixture)
        assert len(imported) > 0
        path = str(tmp_path / "mix4k.npz")
        save_trace(path, imported)
        loaded = load_packed_trace(path)
        assert loaded == imported
        assert loaded.content_digest() == imported.content_digest()


class TestFigure1:
    def test_pattern_matches_paper(self):
        assert FIGURE1_PATTERN == (
            "P1", "P2", "P3", "P4", "P4", "P3", "P2", "P1", "S1", "S2", "S3",
        )

    def test_trace_length(self):
        assert len(figure1_trace(3)) == 33

    def test_seven_distinct_blocks(self):
        assert memory_footprint_blocks(figure1_trace(2)) == 7

    def test_segment_boundaries_are_isolating(self):
        trace = figure1_trace(1)
        gaps = [a.gap for a in trace]
        # A, B, C, D, E points carry the big gap.
        big = [i for i, gap in enumerate(gaps) if gap == ISOLATING_GAP]
        assert big == [0, 4, 8, 9, 10]

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            figure1_trace(0)

    def test_block_names_roundtrip(self):
        names = block_names()
        assert names[FIGURE1_BLOCKS["S2"] * 64] == "S2"
