"""``ColumnFile.gather_unit`` against a full decode followed by a take.

A position-driven column node reads only the codes its positions want,
each at its bit offset (``bitpack.gather_bits_at``), and decodes only
those.  For every fixed-width codec the loader builds, at every packed
width, over units of one, two and 32 pages whose last page is short,
that must equal ``ColumnFile.decode_unit`` of the whole unit, then a
take — and a slot at or past its page's count must still raise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.registry import build_codec, build_codec_for_values
from repro.errors import CompressionError
from repro.storage import page as page_module
from repro.storage.page import ColumnPageCodec, page_payload_bytes
from repro.storage.pagefile import PagedFile
from repro.storage.table import ColumnFile
from repro.types.datatypes import FixedTextType, IntType
from repro.types.schema import Attribute, TableSchema

#: Small pages, so that 32 of them stay small at one bit per value.
PAGE_SIZE = 128
UNIT_PAGES = (1, 2, 32)


def column_unit(codec, values) -> tuple[ColumnFile, bytes]:
    """``values`` written as adjacent column pages: ``(column file, unit)``."""
    schema = TableSchema("C", (Attribute("c", codec.attr_type, codec.spec),))
    page_codec = ColumnPageCodec(schema, PAGE_SIZE)
    column_file = ColumnFile("c", PagedFile("c", page_size=PAGE_SIZE), page_codec)
    return column_file, page_codec.encode_pages(0, values)


def gather_values(codec, values, positions) -> np.ndarray:
    """The values at ``positions`` of ``values``, gathered from their
    column pages as a position-driven node gathers them."""
    column_file, unit = column_unit(codec, values)
    pages, slots = column_file.locate(np.asarray(positions, dtype=np.int64))
    return column_file.gather_unit(unit, pages, slots)[1]


def _cases():
    """``(name, codec, values generator)`` of every fixed-width codec."""
    def ints(lo, hi):
        return lambda rng, n: rng.integers(lo, hi, size=n, endpoint=True)

    def texts(width):
        def draw(rng, n):
            # Letters up to a random length, NUL padding after it.
            chars = rng.integers(ord("a"), ord("k"), size=(n, width), dtype=np.uint8)
            chars[np.arange(width) >= rng.integers(0, width + 1, size=(n, 1))] = 0
            return chars.view(f"S{width}")[:, 0]

        return draw

    yield "identity-int", CodecSpec(CodecKind.NONE, 32), IntType(), ints(-(2**31), 2**31 - 1)
    yield "identity-text", CodecSpec(CodecKind.NONE, 56), FixedTextType(7), texts(7)
    yield "textpack", CodecSpec(CodecKind.PACK, 40), FixedTextType(9), texts(5)
    for bits in range(1, 64):
        yield f"pack-{bits}", CodecSpec(CodecKind.PACK, bits), IntType(), ints(0, 2**bits - 1)
    yield "dict-int", CodecKind.DICT, IntType(), ints(-50, 50)
    yield "dict-text", CodecKind.DICT, FixedTextType(3), texts(2)
    yield "for", CodecKind.FOR, IntType(), ints(1000, 70_000)
    yield "for-zigzag", CodecKind.FOR, IntType(), ints(-70_000, 70_000)
    yield "for-delta", CodecKind.FOR_DELTA, IntType(), ints(-300, 300)


CASES = {name: rest for name, *rest in _cases()}


def _codec_and_values(name: str, pages: int, rng) -> tuple:
    """A codec and ``pages`` pages' worth of values for it, the last page short."""
    spec, attr_type, draw = CASES[name]
    payload_bits = page_payload_bytes(PAGE_SIZE) * 8
    if isinstance(spec, CodecSpec):
        codec = build_codec(spec, attr_type)
        pool = draw(rng, payload_bits * pages // spec.bits)
    else:
        # Sized from the data, as the loader sizes it: from a pool that
        # holds every prefix the pages could take.
        pool = draw(rng, payload_bits * pages)
        if spec is CodecKind.FOR_DELTA:
            pool = np.cumsum(pool)
        codec = build_codec_for_values(spec, attr_type, pool)
    per_page = payload_bits // codec.bits_per_value
    return codec, pool[: per_page * pages - max(1, per_page // 3)]


@pytest.mark.parametrize("pages", UNIT_PAGES)
@pytest.mark.parametrize("name", list(CASES))
def test_gather_equals_full_decode_then_take(name, pages):
    rng = np.random.default_rng([pages, len(name), *name.encode()])
    codec, values = _codec_and_values(name, pages, rng)
    column_file, unit = column_unit(codec, values)
    assert len(unit) == pages * PAGE_SIZE
    counts, decoded = column_file.decode_unit(unit)
    assert counts[-1] < column_file.values_per_page  # a short last page
    np.testing.assert_array_equal(decoded, values)

    size = len(values)
    wanted = rng.choice(size, size=min(size, rng.integers(1, 80)), replace=False)
    positions = np.union1d(wanted, [size - 1])  # the file's last slot too
    page_ids, slots = column_file.locate(positions)
    got_counts, got = column_file.gather_unit(unit, page_ids, slots)
    np.testing.assert_array_equal(got_counts, counts)
    assert got.dtype == decoded.dtype
    np.testing.assert_array_equal(got, decoded[positions])


@pytest.mark.parametrize("name", ["identity-int", "identity-text", "pack-7", "pack-63", "for"])
def test_a_slot_at_or_past_its_page_count_raises(name):
    codec, values = _codec_and_values(name, 2, np.random.default_rng(3))
    column_file, unit = column_unit(codec, values)
    counts, _values = column_file.decode_unit(unit)
    for page, slot in ((1, counts[1]), (0, counts[0]), (1, counts[0] - 1)):
        with pytest.raises(CompressionError, match="past the values"):
            column_file.gather_unit(unit, np.array([0, page]), np.array([0, slot]))


@pytest.mark.parametrize("name", ["pack-3", "pack-58", "dict-text", "for-zigzag"])
def test_packed_codes_are_read_where_they_lie(name, monkeypatch):
    """No code a position does not want is unpacked."""
    codec, values = _codec_and_values(name, 32, np.random.default_rng(5))
    column_file, unit = column_unit(codec, values)

    def unpack(*_args):
        raise AssertionError("a whole page unpacked")

    monkeypatch.setattr(page_module, "unpack_streams", unpack)
    positions = np.array([0, 17, len(values) - 1])
    got = column_file.gather_unit(unit, *column_file.locate(positions))[1]
    np.testing.assert_array_equal(got, values[positions])


@pytest.mark.parametrize("side", ["slots", "unpacked"])
@pytest.mark.parametrize("name", list(CASES))
def test_gather_on_either_side_of_the_share_equals_decode_then_take(name, side):
    """Below ``GATHER_SHARE`` of the unit's values a node reads its codes
    at their offsets, above it unpacks the unit and takes: the same
    values either way."""
    rng = np.random.default_rng([len(name), *name.encode()])
    codec, values = _codec_and_values(name, 32, rng)
    column_file, unit = column_unit(codec, values)
    share = page_module.GATHER_SHARE * (0.5 if side == "slots" else 2)
    positions = np.sort(rng.choice(len(values), size=int(share * len(values)), replace=False))
    got = column_file.gather_unit(unit, *column_file.locate(positions))[1]
    np.testing.assert_array_equal(got, column_file.decode_unit(unit)[1][positions])
