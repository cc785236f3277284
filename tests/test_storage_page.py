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
    page_payload_bytes,
)
from repro.types.datatypes import IntType


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
        page = codec.encode(7, {k: v[:50] for k, v in columns.items()})
        assert len(page) == DEFAULT_PAGE_SIZE
        page_id, rows = codec.decode(page)
        assert page_id == 7
        assert len(rows) == 50
        np.testing.assert_array_equal(rows["O_ORDERKEY"], columns["O_ORDERKEY"][:50])

    def test_decode_columns_interface(self):
        schema, columns = orders_columns(20)
        codec = RowPageCodec(schema)
        page = codec.encode(0, {k: v[:20] for k, v in columns.items()})
        page_id, count, decoded = codec.decode_columns(page)
        assert (page_id, count) == (0, 20)
        for name in schema.attribute_names:
            np.testing.assert_array_equal(decoded[name], columns[name][:20])

    def test_overflow_rejected(self):
        schema, columns = orders_columns(200)
        codec = RowPageCodec(schema, page_size=512)
        with pytest.raises(PageFormatError):
            codec.encode(0, columns)

    def test_ragged_slices_rejected(self):
        schema, columns = orders_columns(10)
        codec = RowPageCodec(schema)
        bad = {k: v[:10] for k, v in columns.items()}
        bad["O_CUSTKEY"] = bad["O_CUSTKEY"][:5]
        with pytest.raises(PageFormatError):
            codec.encode(0, bad)

    def test_wrong_page_size_rejected(self):
        schema, _ = orders_columns(1)
        codec = RowPageCodec(schema)
        with pytest.raises(PageFormatError):
            codec.decode(b"\x00" * 100)


class TestColumnPageCodec:
    def _codec(self, spec_kind=CodecKind.NONE, bits=32):
        spec = CodecSpec(kind=spec_kind, bits=bits)
        return ColumnPageCodec(build_codec(spec, IntType()))

    def test_uncompressed_capacity(self):
        codec = self._codec()
        assert codec.values_per_page == page_payload_bytes(DEFAULT_PAGE_SIZE) // 4

    def test_packed_capacity_scales_with_bits(self):
        packed = ColumnPageCodec(
            build_codec(CodecSpec(kind=CodecKind.PACK, bits=8), IntType())
        )
        assert packed.values_per_page == page_payload_bytes(DEFAULT_PAGE_SIZE)

    def test_roundtrip_with_base_in_trailer(self):
        spec = CodecSpec(kind=CodecKind.FOR, bits=16)
        codec = ColumnPageCodec(build_codec(spec, IntType()))
        values = np.arange(1_000, 1_100)
        page = codec.encode(3, values)
        page_id, decoded = codec.decode(page)
        assert page_id == 3
        np.testing.assert_array_equal(decoded, values)

    def test_decode_raw_exposes_state(self):
        spec = CodecSpec(kind=CodecKind.FOR, bits=16)
        codec = ColumnPageCodec(build_codec(spec, IntType()))
        page = codec.encode(0, np.arange(500, 510))
        _pid, count, payload, state = codec.decode_raw(page)
        assert count == 10
        assert state.base == 500
        assert len(payload) == page_payload_bytes(DEFAULT_PAGE_SIZE)

    def test_overflow_rejected(self):
        codec = self._codec()
        too_many = np.zeros(codec.values_per_page + 1, dtype=np.int64)
        with pytest.raises(PageFormatError):
            codec.encode(0, too_many)
