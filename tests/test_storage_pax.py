"""PAX layout tests (the Section 6 extension)."""

import numpy as np
import pytest

from repro.data.tpch import apply_fig5_compression, generate_orders
from repro.engine.executor import run_scan
from repro.engine.context import ExecutionContext
from repro.engine.query import ScanQuery
from repro.errors import PageFormatError
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.pax import PaxPageCodec


@pytest.fixture(scope="module")
def pax_orders(orders_data):
    return load_table(orders_data, Layout.PAX)


class TestPaxPageCodec:
    def test_capacity_close_to_row_pages(self, orders_data, orders_row):
        codec = PaxPageCodec(orders_data.schema)
        # Same content per page modulo alignment slack: within a few
        # tuples of the row-page capacity.
        assert abs(codec.tuples_per_page - orders_row.page_codec.tuples_per_page) <= 8

    def test_roundtrip_all_columns(self, orders_data):
        codec = PaxPageCodec(orders_data.schema)
        n = codec.tuples_per_page
        slices = {k: v[:n] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(3, slices)
        page_id, count, columns = codec.decode_columns(page)
        assert (page_id, count) == (3, n)
        for name, expected in slices.items():
            np.testing.assert_array_equal(columns[name], expected)

    def test_decode_single_attribute(self, orders_data):
        codec = PaxPageCodec(orders_data.schema)
        n = 50
        slices = {k: v[:n] for k, v in orders_data.columns.items()}
        page = codec.encode_pages(0, slices)
        _pid, count, columns = codec.decode_columns(page, ("O_CUSTKEY",))
        assert count == n
        np.testing.assert_array_equal(columns["O_CUSTKEY"], slices["O_CUSTKEY"])

    def test_decode_columns_subset_matches_single_attribute_decodes(self, orders_z_data):
        codec = PaxPageCodec(orders_z_data.schema)
        slices = {k: v[:200] for k, v in orders_z_data.columns.items()}
        page = codec.encode_pages(7, slices)
        names = ("O_TOTALPRICE", "O_ORDERKEY", "O_ORDERSTATUS")
        page_id, count, columns = codec.decode_columns(page, names)
        assert (page_id, count, tuple(columns)) == (7, 200, names)
        for name in names:
            np.testing.assert_array_equal(
                columns[name], codec.decode_columns(page, (name,))[2][name]
            )

    def test_minipages_are_disjoint(self, orders_data):
        """Minipages follow one another in schema order, each where the
        last one ends, and all of them end before the frame bases."""
        codec = PaxPageCodec(orders_data.schema)
        extents = zip(codec._minipage_offsets, codec._minipage_bytes, strict=True)
        end = 0
        for offset, length in extents:
            assert offset == end
            end = offset + length
        assert end <= codec._payload_bytes

    def test_tuples_past_capacity_fill_the_next_page(self, orders_data):
        codec = PaxPageCodec(orders_data.schema)
        n = codec.tuples_per_page + 1
        slices = {k: v[:n] for k, v in orders_data.columns.items()}
        pages = codec.encode_pages(4, slices)
        size = codec.page_size
        assert len(pages) == 2 * size
        first_id, first_count, _ = codec.decode_columns(pages[:size])
        second_id, second_count, last = codec.decode_columns(pages[size:])
        assert (first_id, first_count, second_id, second_count) == (4, n - 1, 5, 1)
        for name, expected in slices.items():
            np.testing.assert_array_equal(last[name], expected[-1:])

    def test_ragged_slices_rejected(self, orders_data):
        codec = PaxPageCodec(orders_data.schema)
        slices = {k: v[:10] for k, v in orders_data.columns.items()}
        slices["O_CUSTKEY"] = slices["O_CUSTKEY"][:5]
        with pytest.raises(PageFormatError, match="ragged"):
            codec.encode_pages(0, slices)

    def test_compressed_minipages(self, orders_z_data):
        codec = PaxPageCodec(orders_z_data.schema)
        # 92-bit packed tuples: far more per page than the 32-byte rows.
        assert codec.tuples_per_page > 300
        n = codec.tuples_per_page
        slices = {k: v[:n] for k, v in orders_z_data.columns.items()}
        page = codec.encode_pages(0, slices)
        _pid, _count, columns = codec.decode_columns(page)
        for name, expected in slices.items():
            np.testing.assert_array_equal(columns[name], expected)


class TestPaxTable:
    def test_layout_marker(self, pax_orders):
        assert pax_orders.layout is Layout.PAX

    def test_read_column_roundtrip(self, orders_data, pax_orders):
        for name in orders_data.schema.attribute_names:
            np.testing.assert_array_equal(
                pax_orders.read_column(name), orders_data.column(name)
            )

    def test_io_matches_row_store(self, orders_row, pax_orders):
        """PAX does not change page contents: projection-independent I/O."""
        narrow = pax_orders.file_sizes_for(["O_ORDERKEY"], cardinality=1_000_000)
        wide = pax_orders.file_sizes_for(
            list(pax_orders.schema.attribute_names), cardinality=1_000_000
        )
        assert narrow == wide
        row_bytes = sum(orders_row.file_sizes_for([], 1_000_000).values())
        pax_bytes = sum(wide.values())
        assert abs(pax_bytes - row_bytes) / row_bytes < 0.10


class TestPaxScanner:
    def test_results_match_row_scanner(self, orders_data, orders_row, pax_orders):
        predicate = __import__(
            "repro.engine.predicate", fromlist=["predicate_for_selectivity"]
        ).predicate_for_selectivity(
            "O_ORDERDATE", orders_data.column("O_ORDERDATE"), 0.10
        )
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERDATE", "O_CUSTKEY", "O_ORDERPRIORITY"),
            predicates=(predicate,),
        )
        a = run_scan(orders_row, query)
        b = run_scan(pax_orders, query)
        np.testing.assert_array_equal(a.positions, b.positions)
        for name in query.select:
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_one_checksum_per_page_whatever_the_projection(self, orders_data, monkeypatch):
        """Five accessed attributes verify each page's CRC once per load:
        every page on the first scan after the load, none on the next,
        and after a flip in memory the flipped page alone.

        (The scan's CostEvents are pinned by ``test_scan_golden``; the
        checksum is real-clock work the modeled events never counted.)
        """
        from repro.errors import ChecksumError
        from tests.test_storage_integrity import _Checks

        table = load_table(orders_data, Layout.PAX)
        # A page is checked alone (page_checksum) or with its unit
        # (_unit_checksums): two crc32 calls each way.
        checks = _Checks(monkeypatch)
        query = ScanQuery("ORDERS", select=tuple(orders_data.schema.attribute_names)[:5])
        counted = run_scan(table, query)
        assert counted.events.pages_touched == table.file.num_pages > 2
        assert checks.take() == counted.events.pages_touched
        assert run_scan(table, query).events == counted.events
        assert checks.take() == 0

        victim = table.file.num_pages // 2
        table.file.corrupt(victim, 97)
        with pytest.raises(ChecksumError, match=f"page {victim} checksum"):
            run_scan(table, query)
        assert checks.take() == 1
        salvaged = run_scan(table, query, salvage=True)
        assert [fault.page for fault in salvaged.corruption.faults] == [victim]
        assert checks.take() == 1

    def test_memory_traffic_scales_with_projection(self, orders_data, pax_orders):
        from repro.engine.predicate import predicate_for_selectivity

        predicate = predicate_for_selectivity(
            "O_ORDERDATE", orders_data.column("O_ORDERDATE"), 0.10
        )
        few = ExecutionContext()
        run_scan(
            pax_orders,
            ScanQuery("ORDERS", select=("O_ORDERDATE",), predicates=(predicate,)),
            few,
        )
        many = ExecutionContext()
        run_scan(
            pax_orders,
            ScanQuery(
                "ORDERS",
                select=tuple(orders_data.schema.attribute_names),
                predicates=(predicate,),
            ),
            many,
        )
        # Unlike a row scan, PAX touches fewer lines for fewer attrs.
        assert few.events.mem_seq_lines < many.events.mem_seq_lines / 3

    def test_empty_result_keeps_schema(self, orders_data, pax_orders):
        from repro.engine.predicate import ComparisonOp, Predicate

        query = ScanQuery(
            "ORDERS",
            select=("O_CUSTKEY",),
            predicates=(Predicate("O_ORDERDATE", ComparisonOp.LT, -1),),
        )
        result = run_scan(pax_orders, query)
        assert result.num_tuples == 0
        assert result.column("O_CUSTKEY").size == 0
