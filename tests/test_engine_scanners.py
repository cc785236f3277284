"""Scanner tests: row, pipelined column, fused column.

The central invariant of the paper's methodology: both scanners produce
their output in exactly the same format and are interchangeable inside
the query engine.
"""

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.plan import ColumnScannerKind, scan_plan
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import ScanQuery
from repro.errors import PlanError


def query_for(prep_data, select, selectivity=0.10, pred_attr=None):
    from repro.engine.predicate import predicate_for_selectivity

    pred_attr = pred_attr or select[0]
    predicate = predicate_for_selectivity(
        pred_attr, np.asarray(prep_data.column(pred_attr)), selectivity
    )
    return ScanQuery(prep_data.schema.name, select=tuple(select), predicates=(predicate,))


class TestLayoutEquivalence:
    @pytest.mark.parametrize("selectivity", [0.0, 0.001, 0.10, 0.5, 1.0])
    def test_row_column_fused_identical(
        self, lineitem_data, lineitem_row, lineitem_column, selectivity
    ):
        select = ("L_PARTKEY", "L_SHIPMODE", "L_QUANTITY", "L_COMMENT")
        query = query_for(lineitem_data, select, selectivity)
        results = [
            run_scan(lineitem_row, query),
            run_scan(lineitem_column, query),
            run_scan(lineitem_column, query, column_scanner=ColumnScannerKind.FUSED),
        ]
        for other in results[1:]:
            assert other.num_tuples == results[0].num_tuples
            np.testing.assert_array_equal(other.positions, results[0].positions)
            for name in select:
                np.testing.assert_array_equal(
                    other.column(name), results[0].column(name)
                )

    def test_compressed_layouts_match_uncompressed(
        self, lineitem_data, lineitem_row, lineitem_z_data
    ):
        from repro.storage.layout import Layout
        from repro.storage.loader import load_table

        select = ("L_PARTKEY", "L_ORDERKEY", "L_DISCOUNT")
        query = query_for(lineitem_data, select, 0.10)
        reference = run_scan(lineitem_row, query)
        for layout in (Layout.ROW, Layout.COLUMN):
            table = load_table(lineitem_z_data, layout)
            query_z = ScanQuery(
                lineitem_z_data.schema.name,
                select=select,
                predicates=query.predicates,
            )
            result = run_scan(table, query_z)
            assert result.num_tuples == reference.num_tuples
            for name in select:
                np.testing.assert_array_equal(
                    result.column(name), reference.column(name)
                )

    def test_predicate_on_unselected_attribute(
        self, orders_data, orders_row, orders_column
    ):
        query = query_for(
            orders_data,
            select=("O_CUSTKEY", "O_TOTALPRICE"),
            selectivity=0.2,
            pred_attr="O_ORDERDATE",
        )
        a = run_scan(orders_row, query)
        b = run_scan(orders_column, query)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.column("O_CUSTKEY"), b.column("O_CUSTKEY"))
        assert "O_ORDERDATE" not in a.columns

    def test_multiple_predicates(self, orders_data, orders_row, orders_column):
        p1 = Predicate("O_ORDERDATE", ComparisonOp.LE, 9_500)
        p2 = Predicate("O_TOTALPRICE", ComparisonOp.GE, 1_000_000)
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERDATE", "O_TOTALPRICE", "O_CUSTKEY"),
            predicates=(p1, p2),
        )
        a = run_scan(orders_row, query)
        b = run_scan(orders_column, query)
        expected = np.flatnonzero(
            (orders_data.column("O_ORDERDATE") <= 9_500)
            & (orders_data.column("O_TOTALPRICE") >= 1_000_000)
        )
        np.testing.assert_array_equal(a.positions, expected)
        np.testing.assert_array_equal(b.positions, expected)


class TestScannerBehaviour:
    def test_positions_are_record_ids(self, orders_data, orders_column):
        query = query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.10)
        result = run_scan(orders_column, query)
        # Positions index into the original table order.
        dates = orders_data.column("O_ORDERDATE")
        np.testing.assert_array_equal(
            result.column("O_ORDERDATE"), dates[result.positions]
        )

    def test_no_predicates_returns_everything(self, orders_data, orders_row):
        query = ScanQuery("ORDERS", select=("O_CUSTKEY",))
        result = run_scan(orders_row, query)
        assert result.num_tuples == orders_data.num_rows

    def test_empty_result(self, orders_data, orders_column):
        query = query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.0)
        result = run_scan(orders_column, query)
        assert result.num_tuples == 0
        assert result.column("O_CUSTKEY").size == 0

    def test_unknown_attribute_rejected(self, orders_row):
        query = ScanQuery("ORDERS", select=("NOPE",))
        with pytest.raises(Exception):
            run_scan(orders_row, query)

    def test_scan_node_order_puts_predicates_deepest(
        self, orders_data, orders_column
    ):
        context = ExecutionContext()
        query = query_for(
            orders_data,
            select=("O_CUSTKEY", "O_TOTALPRICE"),
            selectivity=0.1,
            pred_attr="O_ORDERDATE",
        )
        plan = scan_plan(context, orders_column, query)
        assert plan.scan_attribute_order()[0] == "O_ORDERDATE"

    def test_next_before_open_rejected(self, orders_column, orders_data):
        from repro.errors import EngineError

        context = ExecutionContext()
        query = query_for(orders_data, ("O_ORDERDATE",), 0.1)
        plan = scan_plan(context, orders_column, query)
        with pytest.raises(EngineError):
            plan.next()

    def test_block_size_respected(self, orders_data, orders_row):
        """A batch is as large as an I/O unit makes it; the logical
        blocks it stands for — what is counted — keep to the block size
        and never span two pages."""
        context = ExecutionContext(block_size=37)
        query = query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.5)
        plan = scan_plan(context, orders_row, query)
        batches = plan.drain()
        assert max(len(batch) for batch in batches) > 37
        sizes = np.concatenate([batch.block_sizes() for batch in batches])
        assert sizes.max() == 37 and sizes.min() >= 1
        assert context.events.blocks_produced == len(sizes)
        capacity = orders_row.page_codec.tuples_per_page
        positions = np.concatenate([batch.positions for batch in batches])
        firsts = positions[np.cumsum(sizes) - sizes] // capacity
        lasts = positions[np.cumsum(sizes) - 1] // capacity
        np.testing.assert_array_equal(firsts, lasts)


class TestScannerEvents:
    def test_row_scanner_examines_every_tuple(self, orders_data, orders_row):
        context = ExecutionContext()
        query = query_for(orders_data, ("O_ORDERDATE",), 0.1)
        run_scan(orders_row, query, context)
        assert context.events.tuples_examined == orders_data.num_rows
        assert context.events.predicate_evals == orders_data.num_rows

    def test_row_memory_traffic_is_whole_table(self, orders_data, orders_row):
        context = ExecutionContext()
        few = query_for(orders_data, ("O_ORDERDATE",), 0.1)
        run_scan(orders_row, few, context)
        lines_few = context.events.mem_seq_lines

        context2 = ExecutionContext()
        all_attrs = query_for(
            orders_data, tuple(orders_data.schema.attribute_names), 0.1,
            pred_attr="O_ORDERDATE",
        )
        run_scan(orders_row, all_attrs, context2)
        # The row store touches the same lines no matter the projection.
        assert context2.events.mem_seq_lines == lines_few

    def test_column_scanner_later_nodes_proportional_to_selectivity(
        self, orders_data, orders_column
    ):
        hi = ExecutionContext()
        run_scan(
            orders_column,
            query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.5),
            hi,
        )
        lo = ExecutionContext()
        run_scan(
            orders_column,
            query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.01),
            lo,
        )
        assert lo.events.positions_processed < hi.events.positions_processed / 10

    def test_column_sparse_access_is_random_lines(self, orders_data, orders_column):
        lo = ExecutionContext()
        run_scan(
            orders_column,
            query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.001),
            lo,
        )
        hi = ExecutionContext()
        run_scan(
            orders_column,
            query_for(orders_data, ("O_ORDERDATE", "O_CUSTKEY"), 0.9),
            hi,
        )
        # Dense second column -> sequential; sparse -> random misses.
        assert hi.events.mem_rand_lines == 0
        assert lo.events.mem_rand_lines > 0

    def test_for_delta_decodes_whole_pages(self, orders_z_data, orders_z_column):
        context = ExecutionContext()
        query = query_for(
            orders_z_data,
            ("O_ORDERDATE", "O_ORDERKEY"),
            0.001,
        )
        run_scan(orders_z_column, query, context)
        from repro.compression.base import CodecKind

        decoded = context.events.values_decoded
        # O_ORDERKEY (FOR-delta) decodes every value despite 0.1% sel.
        assert decoded.get(CodecKind.FOR_DELTA, 0) == orders_z_data.num_rows
