"""Failure injection: corrupt pages and malformed inputs must raise
library errors, never silently return wrong data.

The core property (exercised in :class:`TestRandomBitFlips`): a random
single-bit flip anywhere in a stored table directory either raises
:class:`ChecksumError` (strict mode) or lands in the
:class:`CorruptionReport` with only intact rows returned (salvage mode)
— silence is never an option.
"""

import shutil
import struct

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.registry import build_codec
from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.errors import (
    ChecksumError,
    CompressionError,
    PageFormatError,
    ReproError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import flip_bit_on_disk
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_TRAILER_BYTES,
    ColumnPageCodec,
    RowPageCodec,
    page_checksum,
)
from repro.storage.pagefile import PagedFile
from repro.storage.persist import open_table, save_table
from repro.storage.scrub import CorruptionReport
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema


def restamp_checksum(page: bytes) -> bytes:
    """Recompute a page's CRC after tampering (to test non-CRC checks)."""
    crc_offset = len(page) - PAGE_TRAILER_BYTES + 4
    return (
        page[:crc_offset]
        + struct.pack("<I", page_checksum(page))
        + page[crc_offset + 4 :]
    )


def corrupt_count(page: bytes, new_count: int) -> bytes:
    """Overwrite the page's entry count (leaving the CRC stale)."""
    return struct.pack("<I", new_count) + page[4:]


class TestCorruptPages:
    def test_row_page_with_corrupt_count_fails_checksum(self, orders_data):
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(0, slices)
        bad = corrupt_count(page, 100_000)
        with pytest.raises(ChecksumError):
            codec.decode(bad)

    def test_row_page_with_impossible_count_behind_valid_checksum(self, orders_data):
        # Even when an attacker (or a bug) recomputes the CRC, the count
        # sanity check still rejects the page.
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(0, slices)
        bad = restamp_checksum(corrupt_count(page, 100_000))
        with pytest.raises(PageFormatError):
            codec.decode(bad)

    def test_column_page_with_impossible_count(self):
        spec = CodecSpec(kind=CodecKind.PACK, bits=8)
        codec = ColumnPageCodec(TableSchema("C", (Attribute("v", IntType(), spec),)))
        page = codec.encode_pages(0, np.arange(10))
        bad = restamp_checksum(corrupt_count(page, 10**6))
        with pytest.raises(ReproError):
            codec.decode(bad)

    def test_truncated_page(self, orders_data):
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(0, slices)
        with pytest.raises(PageFormatError):
            codec.decode(page[: DEFAULT_PAGE_SIZE // 2])

    def test_payload_bit_flip_fails_checksum(self, orders_data):
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        page = bytearray(codec.encode_pages(0, slices))
        page[500] ^= 0x04
        with pytest.raises(ChecksumError):
            codec.decode(bytes(page))

    def test_trailer_bit_flip_fails_checksum(self, orders_data):
        # The CRC covers the trailer's page id and base fields too.
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        page = bytearray(codec.encode_pages(7, slices))
        page[-1] ^= 0x80  # high byte of the FOR base
        with pytest.raises(ChecksumError):
            codec.decode(bytes(page))

    def test_dictionary_code_out_of_range(self):
        spec = CodecSpec(kind=CodecKind.DICT, bits=4, dictionary=(10, 20, 30))
        codec = build_codec(spec, IntType())
        payload, state = codec.encode_page(np.array([10, 20, 30]))
        # Flip bits so a code exceeds the dictionary.
        tampered = bytes([0xFF]) + payload[1:]
        with pytest.raises(CompressionError):
            codec.decode_page(tampered, 3, state)

    def test_page_trailer_survives_payload_padding(self, orders_data):
        codec = RowPageCodec(orders_data.schema)
        slices = {k: v[:1] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(1234, slices)
        page_id, rows = codec.decode(page)
        assert page_id == 1234
        assert len(rows) == 1
        assert len(page) == DEFAULT_PAGE_SIZE
        # v2 trailer occupies the fixed tail offset: page id, CRC, base.
        trailer = struct.unpack("<IIq", page[-PAGE_TRAILER_BYTES:])
        assert trailer[0] == 1234
        assert trailer[1] == page_checksum(page)


class TestMalformedFiles:
    def test_mixed_page_sizes_rejected(self):
        file = PagedFile("t", page_size=256)
        file.append_pages(b"\x00" * 256)
        with pytest.raises(StorageError):
            file.append_pages(b"\x00" * 384)

    def test_partial_trailing_bytes_rejected(self):
        # num_pages floors the division, so from_bytes must reject
        # rather than silently drop the torn tail.
        with pytest.raises(StorageError, match="partial page"):
            PagedFile.from_bytes("t", b"\x00" * (256 * 3 + 57), page_size=256)

    def test_whole_page_multiples_accepted(self):
        file = PagedFile.from_bytes("t", b"\x00" * (256 * 3), page_size=256)
        assert file.num_pages == 3

    def test_scanning_respects_file_length(self):
        data = generate_orders(200, seed=1)
        table = load_table(data, Layout.COLUMN)
        custkey = table.column_file("O_CUSTKEY")
        with pytest.raises(StorageError):
            custkey.file.read_page(custkey.file.num_pages)


LAYOUTS = (Layout.ROW, Layout.COLUMN, Layout.PAX)


@pytest.fixture(scope="module")
def saved_tables(tmp_path_factory):
    """One pristine saved directory per layout (copied per test)."""
    root = tmp_path_factory.mktemp("bitflip")
    data = generate_orders(600, seed=31)
    select = tuple(data.schema.attribute_names)
    clean = {}
    for layout in LAYOUTS:
        directory = root / layout.value
        table = load_table(data, layout)
        save_table(table, directory)
        clean[layout] = run_scan(table, ScanQuery("ORDERS", select=select))
    return root, select, clean


class TestRandomBitFlips:
    """Property-style: any single-bit flip is detected, never silent."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", range(5))
    def test_flip_in_page_file_never_silent(
        self, saved_tables, tmp_path, layout, seed
    ):
        root, select, clean = saved_tables
        directory = tmp_path / f"{layout.value}-{seed}"
        shutil.copytree(root / layout.value, directory)
        rng = np.random.default_rng(seed * 7919 + hash(layout.value) % 1000)
        pages_files = sorted(directory.glob("*.pages"))
        target = pages_files[int(rng.integers(len(pages_files)))]
        flip_bit_on_disk(
            target,
            byte=int(rng.integers(target.stat().st_size)),
            bit=int(rng.integers(8)),
        )
        query = ScanQuery("ORDERS", select=select)

        # Strict: the corruption aborts the query.
        with pytest.raises(ChecksumError):
            result = run_scan(open_table(directory), query)
            # Unreachable unless detection failed: would be silent corruption.
            assert result is not None

        # Salvage: the damage is reported and only intact rows return.
        report = CorruptionReport()
        table = open_table(directory, salvage=report)
        result = run_scan(table, query, salvage=True)
        report.merge(result.corruption)
        assert not report.is_clean
        assert not result.is_complete

        clean_result = clean[layout]
        surviving = np.isin(clean_result.positions, result.positions)
        np.testing.assert_array_equal(
            result.positions, clean_result.positions[surviving]
        )
        for name in select:
            np.testing.assert_array_equal(
                result.column(name), clean_result.column(name)[surviving]
            )
        lost = clean_result.num_tuples - result.num_tuples
        assert 0 < lost <= report.estimated_rows_lost

    @pytest.mark.parametrize("seed", range(3))
    def test_flip_in_meta_never_silent(self, saved_tables, tmp_path, seed):
        root, select, _clean = saved_tables
        directory = tmp_path / f"meta-{seed}"
        shutil.copytree(root / Layout.COLUMN.value, directory)
        meta = directory / "meta.json"
        rng = np.random.default_rng(seed)
        flip_bit_on_disk(
            meta,
            byte=int(rng.integers(meta.stat().st_size)),
            bit=int(rng.integers(8)),
        )
        # Metadata cannot be salvaged: every flip must raise — either the
        # meta CRC (ChecksumError) or a parse failure (StorageError).
        with pytest.raises(StorageError):
            open_table(directory)


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError) or obj is ReproError

    def test_integrity_errors_are_storage_errors(self):
        assert issubclass(ChecksumError, StorageError)
        assert issubclass(TransientIOError, StorageError)

    def test_one_except_clause_suffices(self, orders_data):
        codec = RowPageCodec(orders_data.schema)
        try:
            codec.decode(b"nope")
        except ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")
