"""Page-format tests: dense packing, trailers, capacities."""

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.registry import build_codec
from repro.data.tpch import orders_schema
from repro.errors import PageFormatError, StorageError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_BYTES,
    PAGE_TRAILER_BYTES,
    ColumnPageCodec,
    RowPageCodec,
    assemble_pages,
    page_payload_bytes,
    unit_codes,
)
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema


def orders_columns(n, seed=0):
    from repro.data.tpch import generate_orders

    data = generate_orders(n, seed=seed)
    return data.schema, data.columns


class TestPagePayload:
    def test_default_payload(self):
        assert page_payload_bytes(4096) == 4096 - PAGE_HEADER_BYTES - PAGE_TRAILER_BYTES

    def test_tiny_page_rejected(self):
        with pytest.raises(StorageError):
            page_payload_bytes(PAGE_HEADER_BYTES + PAGE_TRAILER_BYTES)


class TestRowPageCodec:
    def test_capacity_matches_paper_arithmetic(self):
        schema = orders_schema()
        codec = RowPageCodec(schema, DEFAULT_PAGE_SIZE)
        assert codec.stride == 32
        assert codec.tuples_per_page == page_payload_bytes(DEFAULT_PAGE_SIZE) // 32

    def test_roundtrip(self):
        schema, columns = orders_columns(50)
        codec = RowPageCodec(schema)
        page = codec.encode_pages(7, {k: v[:50] for k, v in columns.items()})
        assert len(page) == DEFAULT_PAGE_SIZE
        page_id, rows = codec.decode(page)
        assert page_id == 7
        assert len(rows) == 50
        np.testing.assert_array_equal(rows["O_ORDERKEY"], columns["O_ORDERKEY"][:50])

    def test_decode_columns_interface(self):
        schema, columns = orders_columns(20)
        codec = RowPageCodec(schema)
        page = codec.encode_pages(0, {k: v[:20] for k, v in columns.items()})
        page_id, count, decoded = codec.decode_columns(page)
        assert (page_id, count) == (0, 20)
        for name in schema.attribute_names:
            np.testing.assert_array_equal(decoded[name], columns[name][:20])

    def test_tuples_past_capacity_fill_the_next_page(self):
        schema, columns = orders_columns(200)
        codec = RowPageCodec(schema, page_size=512)
        pages = codec.encode_pages(5, columns)
        capacity = codec.tuples_per_page
        assert len(pages) == 512 * -(-200 // capacity)
        decoded = [codec.decode(pages[i : i + 512]) for i in range(0, len(pages), 512)]
        assert [page_id for page_id, _rows in decoded] == list(range(5, 5 + len(decoded)))
        assert [len(rows) for _id, rows in decoded[:-1]] == [capacity] * (len(decoded) - 1)
        np.testing.assert_array_equal(
            np.concatenate([rows["O_ORDERKEY"] for _id, rows in decoded]),
            columns["O_ORDERKEY"],
        )

    def test_ragged_slices_rejected(self):
        schema, columns = orders_columns(10)
        codec = RowPageCodec(schema)
        bad = {k: v[:10] for k, v in columns.items()}
        bad["O_CUSTKEY"] = bad["O_CUSTKEY"][:5]
        with pytest.raises(PageFormatError):
            codec.encode_pages(0, bad)

    def test_wrong_page_size_rejected(self):
        schema, _ = orders_columns(1)
        codec = RowPageCodec(schema)
        with pytest.raises(PageFormatError):
            codec.decode(b"\x00" * 100)


def _column_codec(spec_kind=CodecKind.NONE, bits=32) -> ColumnPageCodec:
    """The column page codec of one integer attribute under ``spec``."""
    spec = CodecSpec(kind=spec_kind, bits=bits)
    return ColumnPageCodec(TableSchema("C", (Attribute("v", IntType(), spec),)))


class TestColumnPageCodec:
    def _codec(self, spec_kind=CodecKind.NONE, bits=32):
        return _column_codec(spec_kind, bits)

    def test_uncompressed_capacity(self):
        codec = self._codec()
        assert codec.tuples_per_page == page_payload_bytes(DEFAULT_PAGE_SIZE) // 4

    def test_packed_capacity_scales_with_bits(self):
        packed = _column_codec(CodecKind.PACK, 8)
        assert packed.tuples_per_page == page_payload_bytes(DEFAULT_PAGE_SIZE)

    def test_roundtrip_with_base_in_trailer(self):
        codec = _column_codec(CodecKind.FOR, 16)
        values = np.arange(1_000, 1_100)
        page = codec.encode_pages(3, values)
        page_id, decoded = codec.decode(page)
        assert page_id == 3
        np.testing.assert_array_equal(decoded, values)

    def test_the_frame_base_sits_in_the_trailer(self):
        """A column page is a coded page of one attribute whose frame base
        is the trailer's base slot: the coded page decode reads it there."""
        codec = _column_codec(CodecKind.FOR, 16)
        page = codec.encode_pages(0, np.arange(500, 510))
        assert np.frombuffer(page, "<i8", 1, DEFAULT_PAGE_SIZE - 8)[0] == 500
        page_id, count, columns = codec.decode_columns(page, ("v",))
        assert (page_id, count) == (0, 10)
        np.testing.assert_array_equal(columns["v"], np.arange(500, 510))
        values = np.concatenate([np.arange(codec.tuples_per_page) + 7, np.arange(9)])
        counts, unit_columns = codec.decode_unit(codec.encode_pages(0, values))
        assert counts.tolist() == [codec.tuples_per_page, 9]
        np.testing.assert_array_equal(unit_columns["v"], values)

    def test_values_past_capacity_fill_the_next_page(self):
        codec = self._codec()
        values = np.arange(codec.tuples_per_page + 1)
        pages = codec.encode_pages(0, values)
        assert len(pages) == 2 * DEFAULT_PAGE_SIZE
        first, second = pages[:DEFAULT_PAGE_SIZE], pages[DEFAULT_PAGE_SIZE:]
        np.testing.assert_array_equal(codec.decode(first)[1], values[:-1])
        assert codec.decode(second)[0] == 1
        np.testing.assert_array_equal(codec.decode(second)[1], values[-1:])

    def test_payload_past_capacity_rejected(self):
        with pytest.raises(PageFormatError, match="exceeds page capacity"):
            assemble_pages(64, 0, [1], [b"\x01" * 45])


class TestUnitCodes:
    """Column pages and PAX minipages share one code extraction."""

    @pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
    @pytest.mark.parametrize("name", orders_schema().attribute_names)
    def test_a_minipage_holds_a_column_pages_codes(
        self, orders_data, orders_z_data, compressed, name
    ):
        """Two pages of one attribute, as column pages and as PAX
        minipages: the codes read at the payload and at the minipage's
        offset are the same, and decode to the attribute's values."""
        from repro.storage.pax import PaxPageCodec

        data = orders_z_data if compressed else orders_data
        pax = PaxPageCodec(data.schema)
        per_page = pax.tuples_per_page
        values = data.columns[name][: 2 * per_page]
        assert len(values) == 2 * per_page
        index = data.schema.index_of(name)
        codec = pax._codecs[index]
        column = ColumnPageCodec(data.schema.project((name,)))
        column_unit = b"".join(
            column.encode_pages(page, values[page * per_page : (page + 1) * per_page])
            for page in range(2)
        )
        pax_unit = pax.encode_pages(0, {n: c[: 2 * per_page] for n, c in data.columns.items()})
        size = pax.page_size
        column_codes = unit_codes(codec, column_unit, 2, size, PAGE_HEADER_BYTES, per_page)
        offset = PAGE_HEADER_BYTES + pax._minipage_offsets[index]
        pax_codes = unit_codes(codec, pax_unit, 2, size, offset, per_page)
        assert pax_codes.shape == (2, per_page)
        np.testing.assert_array_equal(pax_codes, column_codes)
        bases = np.ndarray((2,), "<i8", column_unit, size - 8, (size,))
        decoded = codec.decode_codes(pax_codes, bases).reshape(-1)
        np.testing.assert_array_equal(decoded, values)
