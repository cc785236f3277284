"""Property-based codec tests: every scheme round-trips any data it
accepts, at any page split, and selective decode equals full decode."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind
from repro.compression.registry import build_codec_for_values
from repro.types.datatypes import FixedTextType, IntType
from tests.test_column_gather import gather_values

int_columns = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    min_size=1,
    max_size=300,
)

nonneg_columns = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=300
)

text_columns = st.lists(
    st.binary(min_size=0, max_size=8).filter(lambda b: b"\x00" not in b),
    min_size=1,
    max_size=200,
)


def roundtrip(kind, attr_type, values):
    codec = build_codec_for_values(kind, attr_type, values, page_capacity_hint=len(values))
    payload, state = codec.encode_page(values)
    decoded = codec.decode_page(payload, len(values), state)
    np.testing.assert_array_equal(decoded, values)
    return codec, payload, state


@settings(max_examples=60, deadline=None)
@given(nonneg_columns)
def test_bitpack_roundtrip(raw):
    roundtrip(CodecKind.PACK, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(int_columns)
def test_for_roundtrip_any_ints(raw):
    roundtrip(CodecKind.FOR, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(int_columns)
def test_for_delta_roundtrip_any_ints(raw):
    roundtrip(CodecKind.FOR_DELTA, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(int_columns)
def test_dictionary_roundtrip_ints(raw):
    roundtrip(CodecKind.DICT, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(text_columns)
def test_dictionary_roundtrip_text(raw):
    values = np.array(raw, dtype="S8")
    roundtrip(CodecKind.DICT, FixedTextType(8), values)


@settings(max_examples=60, deadline=None)
@given(text_columns)
def test_textpack_roundtrip(raw):
    values = np.array(raw, dtype="S8")
    roundtrip(CodecKind.PACK, FixedTextType(8), values)


@settings(max_examples=40, deadline=None)
@given(
    int_columns,
    st.data(),
)
def test_selective_decode_matches_full_decode(raw, data):
    values = np.array(raw, dtype=np.int64)
    kind = data.draw(
        st.sampled_from(
            [CodecKind.NONE, CodecKind.DICT, CodecKind.FOR, CodecKind.FOR_DELTA]
        )
    )
    codec = build_codec_for_values(kind, IntType(), values, page_capacity_hint=len(values))
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(values) - 1),
            min_size=0,
            max_size=len(values),
            unique=True,
        ).map(sorted)
    )
    positions = np.array(positions, dtype=np.int64)
    selected = gather_values(codec, values, positions)
    np.testing.assert_array_equal(selected, values[positions])
    # What the CPU model charges: the whole page, or one per position.
    assert codec.decodes_whole_page == (kind is CodecKind.FOR_DELTA)


# --- RLE (variable capacity, int-only) ---------------------------------------

runs_columns = st.lists(
    st.tuples(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=1, max_value=50),
    ),
    min_size=1,
    max_size=40,
).map(lambda pairs: [v for value, length in pairs for v in [value] * length])


@settings(max_examples=60, deadline=None)
@given(int_columns)
def test_rle_roundtrip_any_ints(raw):
    roundtrip(CodecKind.RLE, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(runs_columns)
def test_rle_roundtrip_runs_heavy(raw):
    roundtrip(CodecKind.RLE, IntType(), np.array(raw, dtype=np.int64))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-(2**31), max_value=2**31 - 1), st.integers(1, 500))
def test_rle_single_run(value, length):
    values = np.full(length, value, dtype=np.int64)
    codec, payload, _state = roundtrip(CodecKind.RLE, IntType(), values)
    # A single run stores one (value, run-length) pair regardless of
    # length; each stream is packed separately and byte-rounded.
    assert len(payload) == 4 + (codec.spec.bits + 7) // 8 + (codec.spec.run_bits + 7) // 8


def test_rle_empty_page_roundtrips():
    # Spec sized from real data, then an empty page encoded under it
    # (the loader never writes one, but decode must not crash).
    sized_from = np.array([7, 7, 7, 3], dtype=np.int64)
    codec = build_codec_for_values(CodecKind.RLE, IntType(), sized_from)
    payload, state = codec.encode_page(np.zeros(0, dtype=np.int64))
    decoded = codec.decode_page(payload, 0, state)
    assert decoded.size == 0


@settings(max_examples=40, deadline=None)
@given(runs_columns, st.integers(min_value=16, max_value=256))
def test_rle_encode_prefix_consumes_whole_runs(raw, payload_bytes):
    values = np.array(raw, dtype=np.int64)
    codec = build_codec_for_values(CodecKind.RLE, IntType(), values)
    try:
        payload, state, consumed = codec.encode_prefix(values, payload_bytes)
    except Exception:
        # Payload too small for even one pair: a legitimate refusal.
        assert codec.pair_bits > payload_bytes * 8 - 32
        return
    assert 1 <= consumed <= len(values)
    decoded = codec.decode_page(payload, consumed, state)
    np.testing.assert_array_equal(decoded, values[:consumed])
    # Page boundaries fall on run boundaries (or a cap split).
    if consumed < len(values):
        assert values[consumed] != values[consumed - 1] or consumed % (1 << 16) == 0


# --- textpack adversarial cases -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_textpack_roundtrip_random_widths(data):
    width = data.draw(st.integers(min_value=1, max_value=12))
    raw = data.draw(
        st.lists(
            st.binary(min_size=0, max_size=width).filter(lambda b: b"\x00" not in b),
            min_size=1,
            max_size=100,
        )
    )
    values = np.array(raw, dtype=f"S{width}")
    codec, payload, _state = roundtrip(CodecKind.PACK, FixedTextType(width), values)
    longest = max((len(v) for v in raw), default=0)
    assert len(payload) == max(1, longest) * len(values)


def test_textpack_max_width_values():
    # Values at the full field width: packing must not drop a byte.
    values = np.array([b"abcdefgh", b"zzzzzzzz", b"a"], dtype="S8")
    _codec, payload, _state = roundtrip(CodecKind.PACK, FixedTextType(8), values)
    assert len(payload) == 8 * 3


def test_textpack_all_empty_strings():
    values = np.array([b"", b"", b""], dtype="S8")
    _codec, payload, _state = roundtrip(CodecKind.PACK, FixedTextType(8), values)
    assert len(payload) == 3  # floor of one stored byte per value


def test_textpack_empty_page_roundtrips():
    sized_from = np.array([b"abc", b"de"], dtype="S8")
    codec = build_codec_for_values(CodecKind.PACK, FixedTextType(8), sized_from)
    payload, state = codec.encode_page(np.zeros(0, dtype="S8"))
    decoded = codec.decode_page(payload, 0, state)
    assert decoded.size == 0


@settings(max_examples=40, deadline=None)
@given(nonneg_columns)
def test_compression_never_negative_sized(raw):
    values = np.array(raw, dtype=np.int64)
    for kind in (CodecKind.PACK, CodecKind.FOR, CodecKind.FOR_DELTA):
        codec = build_codec_for_values(kind, IntType(), values, page_capacity_hint=len(values))
        payload, _state = codec.encode_page(values)
        expected_bits = codec.bits_per_value * len(values)
        assert len(payload) == (expected_bits + 7) // 8


# --- delete-vector bitmap codec -------------------------------------------------

from repro.errors import ChecksumError, StorageError  # noqa: E402
from repro.storage.delete_vector import DeleteVector  # noqa: E402

dv_sizes = st.integers(min_value=0, max_value=2_000)


def deleted_positions(vector: DeleteVector) -> list[int]:
    deleted, _shift = vector.snapshot()
    return [] if deleted is None else np.flatnonzero(deleted).tolist()


@st.composite
def dv_vectors(draw):
    size = draw(dv_sizes)
    positions = (
        draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                max_size=min(size, 200),
            )
        )
        if size
        else []
    )
    vector = DeleteVector(size)
    for position in positions:
        vector.set(position)
    return vector, positions


@settings(max_examples=80, deadline=None)
@given(dv_vectors(), st.integers(min_value=16, max_value=4096))
def test_delete_vector_roundtrip_any_page_size(built, page_bytes):
    vector, _positions = built
    blob = vector.to_bytes(page_bytes=page_bytes)
    back = DeleteVector.from_bytes(blob)
    assert back == vector
    assert back.size == vector.size
    assert back.count() == vector.count()


@settings(max_examples=80, deadline=None)
@given(dv_vectors())
def test_delete_vector_popcount_matches_oracle(built):
    vector, positions = built
    oracle = set(positions)
    assert vector.count() == len(oracle)
    deleted, shift = vector.snapshot()
    assert (deleted is None) == (not oracle) == vector.is_empty
    assert deleted_positions(vector) == sorted(oracle)
    if deleted is not None:
        assert deleted.dtype == bool and len(deleted) == vector.size
        assert deleted.sum() == len(oracle)
    for position in list(oracle)[:20]:
        assert vector.test(position)
    # Prefix counts agree with a running oracle sum.
    assert shift.dtype == np.int64 and len(shift) == vector.size + 1
    assert shift[0] == 0
    assert shift[-1] == len(oracle)
    running = 0
    for position in sorted(oracle):
        assert shift[position] == running
        running += 1
        assert shift[position + 1] == running


@settings(max_examples=40, deadline=None)
@given(dv_vectors(), st.data())
def test_delete_vector_snapshot_is_read_only_and_stays_put(built, data):
    """A snapshot is the vector as it was: read-only, and untouched by
    later deletes and grows, which show in the next snapshot only."""
    import pytest

    vector, _positions = built
    before = deleted_positions(vector)
    deleted, shift = vector.snapshot()
    kept = (None if deleted is None else deleted.copy(), shift.copy())
    for array in (deleted, shift):
        if array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
    vector.grow(vector.size + data.draw(st.integers(0, 40)))
    vector.set_many(
        data.draw(st.lists(st.integers(0, vector.size - 1), max_size=20)) if vector.size else []
    )
    if kept[0] is None:
        assert deleted is None
    else:
        np.testing.assert_array_equal(deleted, kept[0])
    np.testing.assert_array_equal(shift, kept[1])
    assert set(before) <= set(deleted_positions(vector))


@settings(max_examples=60, deadline=None)
@given(dv_sizes, st.data())
def test_delete_vector_set_clear_idempotent(size, data):
    vector = DeleteVector(size)
    if size == 0:
        assert vector.count() == 0 and vector.is_empty
        return
    position = data.draw(st.integers(min_value=0, max_value=size - 1))
    assert vector.set(position) is True
    assert vector.set(position) is False  # re-set is a no-op
    assert vector.count() == 1
    assert vector.clear(position) is True
    assert vector.clear(position) is False  # re-clear is a no-op
    assert vector.count() == 0 and vector.is_empty


def test_delete_vector_empty_full_boundary_pages():
    # Empty vector: header-only blob round-trips.
    empty = DeleteVector(0)
    assert DeleteVector.from_bytes(empty.to_bytes()) == empty
    # Fully-populated vector at byte and page boundaries.
    for size in (1, 7, 8, 9, 1024 * 8, 1024 * 8 + 1):
        vector = DeleteVector(size)
        vector.set_many(range(size))
        assert vector.count() == size
        back = DeleteVector.from_bytes(vector.to_bytes(page_bytes=1024))
        assert back == vector and back.count() == size


def test_delete_vector_corruption_detected():
    vector = DeleteVector(100)
    vector.set_many([0, 50, 99])
    blob = bytearray(vector.to_bytes(page_bytes=16))
    # Flip one payload bit: some page CRC must fail.
    blob[len(blob) // 2] ^= 0x01
    try:
        DeleteVector.from_bytes(bytes(blob))
    except (ChecksumError, StorageError):
        pass
    else:  # pragma: no cover - the flip must be caught
        raise AssertionError("corrupted delete vector decoded cleanly")


def test_delete_vector_tail_bits_must_be_zero():
    import struct
    import zlib

    import pytest

    vector = DeleteVector(9)  # two bytes, 7 padding bits in the tail
    vector.set(8)
    assert DeleteVector.from_bytes(vector.to_bytes()) == vector

    # Forge a blob whose header claims size 9 but whose (CRC-valid)
    # payload carries bit 15 set — a bit past the logical size.  Both
    # sizes need two payload bytes and one page, so only the header's
    # size field and CRC change; the decoder's tail-bit validation is
    # the sole guard.
    grown = DeleteVector(16)
    grown.set_many([8, 15])
    blob = bytearray(grown.to_bytes())
    header_struct = struct.Struct("<4sIQII")
    magic, version, _size, page_bytes, num_pages = header_struct.unpack_from(
        bytes(blob)
    )
    forged_head = header_struct.pack(magic, version, 9, page_bytes, num_pages)
    blob[: header_struct.size] = forged_head
    struct.pack_into("<I", blob, header_struct.size, zlib.crc32(forged_head))
    with pytest.raises(StorageError, match="past its logical size"):
        DeleteVector.from_bytes(bytes(blob))


@settings(max_examples=80, deadline=None)
@given(dv_vectors(), st.data())
def test_delete_vector_set_many_matches_the_set_loop(built, data):
    """One numpy pass marks what a loop over ``set`` marks, and counts
    what it counts: a position repeated in the batch once, one deleted
    before not at all."""
    vector, _positions = built
    size = vector.size
    batch = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(size - 1, 0)), max_size=300)
        if size
        else st.just([])
    )
    looped = vector.copy()
    newly = sum(looped.set(position) for position in batch)
    assert vector.set_many(batch) == newly
    assert vector == looped and vector.count() == looped.count()
    assert vector.set_many(batch) == 0  # idempotent


def test_delete_vector_set_many_is_all_or_none():
    import pytest

    vector = DeleteVector(100)
    vector.set(7)
    for batch, outside in (([5, 10**9], 10**9), ([10**9, 5], 10**9), ([5, -1], -1), ([5, 100], 100)):
        with pytest.raises(StorageError, match=f"position {outside} outside"):
            vector.set_many(batch)
        assert deleted_positions(vector) == [7]  # 5 was not applied
    assert vector.set_many([]) == 0 and vector.count() == 1
    assert vector.set_many([5, 5, 7, 99]) == 2  # duplicates once, 7 was deleted
    assert deleted_positions(vector) == [5, 7, 99]


def test_delete_vector_set_many_spans_a_grow():
    vector = DeleteVector(10)
    assert vector.set_many([9]) == 1
    vector.grow(1_000)  # past the allocated bytes
    assert vector.set_many([9, 10, 63, 64, 999]) == 4
    assert deleted_positions(vector) == [9, 10, 63, 64, 999]
    assert vector.count() == 5 and DeleteVector.from_bytes(vector.to_bytes()) == vector
    assert DeleteVector(0).set_many([]) == 0 and DeleteVector(0).count() == 0
