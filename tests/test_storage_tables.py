"""PagedFile, tables, loader, compressed rows, write store tests."""

import math

import numpy as np
import pytest

from repro.data.tpch import apply_fig5_compression, generate_orders
from repro.errors import SchemaError, StorageError
from repro.storage.layout import Layout
from repro.storage.loader import BulkLoader, load_table
from repro.storage.pagefile import PagedFile
from repro.storage.rowz import CompressedRowPageCodec, schema_is_compressed
from repro.storage.table import make_row_page_codec


class TestPagedFile:
    def test_append_and_read(self):
        file = PagedFile("t", page_size=64)
        index = file.append_pages(b"a" * 64)
        assert index == 0
        assert file.read_page(0) == b"a" * 64
        assert file.num_pages == 1
        assert file.size_bytes == 64

    def test_wrong_size_rejected(self):
        file = PagedFile("t", page_size=64)
        with pytest.raises(StorageError):
            file.append_pages(b"short")

    def test_out_of_range_rejected(self):
        file = PagedFile("t", page_size=64)
        with pytest.raises(StorageError):
            file.read_page(0)

    def test_iter_pages_order(self):
        file = PagedFile("t", page_size=8)
        for i in range(5):
            file.append_pages(bytes([i]) * 8)
        pages = list(file.iter_pages())
        assert len(pages) == 5
        assert pages[3] == b"\x03" * 8
        assert list(file.iter_pages(start=4)) == [b"\x04" * 8]


class TestLoaderAndTables:
    def test_row_column_equivalence(self, orders_data, orders_row, orders_column):
        for name in orders_data.schema.attribute_names:
            np.testing.assert_array_equal(
                orders_row.read_column(name), orders_data.column(name)
            )
            np.testing.assert_array_equal(
                orders_column.read_column(name), orders_data.column(name)
            )

    def test_pages_are_dense_packed(self, orders_row):
        # All pages except the last must be full.
        capacity = orders_row.page_codec.tuples_per_page
        expected_pages = math.ceil(orders_row.num_rows / capacity)
        assert orders_row.file.num_pages == expected_pages

    def test_file_sizes_at_paper_scale(self, orders_row, orders_column):
        row_bytes = sum(
            orders_row.file_sizes_for([], cardinality=60_000_000).values()
        )
        assert abs(row_bytes - 1.9e9) / 1.9e9 < 0.05  # paper: 1.9 GB
        col_bytes = sum(
            orders_column.file_sizes_for(
                list(orders_column.schema.attribute_names), 60_000_000
            ).values()
        )
        assert col_bytes < row_bytes

    def test_column_subset_sizes(self, orders_column):
        sizes = orders_column.file_sizes_for(["O_ORDERKEY"], cardinality=1_000_000)
        assert set(sizes) == {"O_ORDERKEY"}
        assert sizes["O_ORDERKEY"] == orders_column.pages_for_rows(
            "O_ORDERKEY", 1_000_000
        ) * orders_column.page_size

    def test_unknown_attribute_rejected(self, orders_column, orders_row):
        with pytest.raises(SchemaError):
            orders_column.column_file("nope")
        with pytest.raises(SchemaError):
            orders_row.file_sizes_for(["nope"])

    def test_bad_page_size_rejected(self):
        with pytest.raises(StorageError):
            BulkLoader(page_size=0)

    def test_total_bytes(self, orders_row, orders_column):
        assert orders_row.total_bytes == orders_row.file.size_bytes
        assert orders_column.total_bytes == sum(
            cf.file.size_bytes for cf in orders_column.column_files.values()
        )


class TestCompressedRows:
    def test_codec_selection(self, orders_data, orders_z_data):
        assert not schema_is_compressed(orders_data.schema)
        assert schema_is_compressed(orders_z_data.schema)
        assert isinstance(
            make_row_page_codec(orders_z_data.schema), CompressedRowPageCodec
        )

    def test_stride_matches_fig5(self, orders_z_data):
        codec = CompressedRowPageCodec(orders_z_data.schema)
        assert codec.stride == 12  # ORDERS-Z

    def test_roundtrip_all_columns(self, orders_z_data, orders_z_row):
        for name in orders_z_data.schema.attribute_names:
            np.testing.assert_array_equal(
                orders_z_row.read_column(name), orders_z_data.column(name)
            )

    def test_compressed_row_table_smaller(self, orders_row, orders_z_row):
        assert orders_z_row.total_bytes < orders_row.total_bytes / 2

    def test_lineitem_z_stride(self, lineitem_z_data):
        codec = CompressedRowPageCodec(lineitem_z_data.schema)
        assert codec.stride == 51  # paper reports 52 (408 bits exactly)


class TestWriteStore:
    def test_merge_appends_and_sorts(self, orders_data):
        from repro.storage.write_store import WriteOptimizedStore

        table = load_table(orders_data, Layout.COLUMN)
        store = WriteOptimizedStore(orders_data.schema, sort_key="O_ORDERKEY")
        store.attach_base(table.num_rows)
        store.insert((1, 1, 42, b"O", b"5-LOW", 777, 0))
        store.insert((2, 2, 43, b"F", b"1-URGENT", 888, 0))
        assert len(store) == 2
        merged = store.merge_into(table)
        assert merged.num_rows == orders_data.num_rows + 2
        keys = merged.read_column("O_ORDERKEY")
        assert (np.diff(keys) >= 0).all()
        assert store.is_empty

    def test_wrong_arity_rejected(self, orders_data):
        from repro.storage.write_store import WriteOptimizedStore

        store = WriteOptimizedStore(orders_data.schema)
        with pytest.raises(SchemaError):
            store.insert((1, 2, 3))

    def test_staged_columns_are_built_once_per_write(self, orders_data):
        """Made once per insert: reads between two inserts share read-only
        arrays (a delete leaves them be), an insert (or a merge's reset)
        hands out new ones, and what a read or a merge makes of them is
        its own copy."""
        from repro.storage.write_store import WriteOptimizedStore

        table = load_table(orders_data, Layout.COLUMN)
        store = WriteOptimizedStore(orders_data.schema)
        store.attach_base(table.num_rows)
        assert store.staged_columns() == {}
        rows = [(1, 1, 42, b"O", b"5-LOW", 777, 0), (2, 2, 43, b"F", b"1-URGENT", 888, 0)]
        store.insert(rows[0])
        first = store.staged_columns()
        again, _live = store.match_staged(())
        assert all(again[name] is column for name, column in first.items())
        assert not any(column.flags.writeable for column in first.values())
        first.pop("O_CUSTKEY")  # the dict is the caller's
        assert "O_CUSTKEY" in store.staged_columns()
        store.delete([0])  # a delete does not touch the staged tuples
        assert store.staged_columns()["O_ORDERKEY"] is first["O_ORDERKEY"]
        with pytest.raises(SchemaError):
            store.insert_many([rows[1], (1, 2, 3)])  # refused whole: same version
        assert store.staged_columns()["O_ORDERKEY"] is first["O_ORDERKEY"]
        store.insert(rows[1])
        second = store.staged_columns()
        assert second["O_ORDERKEY"] is not first["O_ORDERKEY"]
        assert second["O_CUSTKEY"].tolist() == [42, 43] and first["O_ORDERKEY"].tolist() == [1]
        merged = store.merged_columns(table.columns_dict())
        assert all(column.flags.writeable for column in merged.values())
        assert len(merged["O_CUSTKEY"]) == table.num_rows + 1
        store.reset(table.num_rows)
        assert store.staged_columns() == {}

    def test_merge_without_staged_rows_is_identity(self, orders_data):
        from repro.storage.write_store import WriteOptimizedStore

        table = load_table(orders_data, Layout.ROW)
        store = WriteOptimizedStore(orders_data.schema)
        store.attach_base(table.num_rows)
        merged = store.merge_into(table)
        assert merged.num_rows == table.num_rows
        np.testing.assert_array_equal(
            merged.read_column("O_CUSTKEY"), table.read_column("O_CUSTKEY")
        )

    def test_layout_preserved(self, orders_data):
        from repro.storage.write_store import WriteOptimizedStore

        for layout in (Layout.ROW, Layout.COLUMN):
            table = load_table(orders_data, layout)
            store = WriteOptimizedStore(orders_data.schema)
            store.attach_base(table.num_rows)
            store.insert((9, 9, 9, b"P", b"5-LOW", 1, 0))
            merged = store.merge_into(table)
            assert merged.layout is layout
