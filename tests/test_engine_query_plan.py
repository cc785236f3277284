"""ScanQuery, plan-builder, and context tests."""

import pytest

from repro.data.tpch import orders_schema
from repro.engine.context import ExecutionContext
from repro.engine.plan import ColumnScannerKind, scan_plan
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import AggregateFunction, AggregateSpec, ScanQuery
from repro.errors import PlanError


def predicate(attr="O_ORDERDATE", value=5):
    return Predicate(attr, ComparisonOp.LE, value)


class TestScanQuery:
    def test_scan_attributes_put_predicates_first(self):
        query = ScanQuery(
            "ORDERS",
            select=("O_CUSTKEY", "O_ORDERDATE"),
            predicates=(predicate("O_ORDERDATE"),),
        )
        assert query.scan_attributes()[0] == "O_ORDERDATE"
        assert set(query.scan_attributes()) == {"O_CUSTKEY", "O_ORDERDATE"}

    def test_scan_attributes_include_unselected_predicates(self):
        query = ScanQuery(
            "ORDERS",
            select=("O_CUSTKEY",),
            predicates=(predicate("O_TOTALPRICE"),),
        )
        assert query.scan_attributes() == ("O_TOTALPRICE", "O_CUSTKEY")

    def test_no_duplicates_in_scan_attributes(self):
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERDATE", "O_CUSTKEY"),
            predicates=(
                predicate("O_ORDERDATE", 5),
                predicate("O_ORDERDATE", 9),
            ),
        )
        assert query.scan_attributes().count("O_ORDERDATE") == 1

    def test_selected_width(self):
        query = ScanQuery("ORDERS", select=("O_ORDERDATE", "O_ORDERPRIORITY"))
        assert query.selected_width(orders_schema()) == 4 + 11

    def test_empty_select_rejected(self):
        with pytest.raises(PlanError):
            ScanQuery("ORDERS", select=())

    def test_duplicate_select_rejected(self):
        with pytest.raises(PlanError):
            ScanQuery("ORDERS", select=("O_CUSTKEY", "O_CUSTKEY"))

    def test_validate_against_schema(self):
        query = ScanQuery("ORDERS", select=("NOPE",))
        with pytest.raises(Exception):
            query.validate_against(orders_schema())

    def test_describe(self):
        query = ScanQuery(
            "ORDERS", select=("O_CUSTKEY",), predicates=(predicate(),)
        )
        text = query.describe()
        assert "select O_CUSTKEY from ORDERS" in text
        assert "O_ORDERDATE <= 5" in text

    def test_describe_without_predicates(self):
        query = ScanQuery("ORDERS", select=("O_CUSTKEY",))
        assert query.describe().endswith("where true")

    def test_predicates_on(self):
        p1, p2 = predicate("O_ORDERDATE"), predicate("O_CUSTKEY")
        query = ScanQuery("ORDERS", select=("O_CUSTKEY",), predicates=(p1, p2))
        assert query.predicates_on("O_ORDERDATE") == (p1,)
        assert query.predicates_on("O_TOTALPRICE") == ()


class TestAggregateSpec:
    def test_count_needs_no_argument(self):
        spec = AggregateSpec(group_by=("a",), function=AggregateFunction.COUNT)
        assert spec.argument is None

    def test_sum_requires_argument(self):
        with pytest.raises(PlanError):
            AggregateSpec(group_by=("a",), function=AggregateFunction.SUM)


class TestPlanBuilders:
    def test_scanner_kind_dispatch(self, orders_row, orders_column):
        from repro.engine.operators.scan_column import ColumnScanner
        from repro.engine.operators.scan_fused import FusedColumnScanner
        from repro.engine.operators.scan_row import RowScanner

        query = ScanQuery("ORDERS", select=("O_CUSTKEY",))
        assert isinstance(
            scan_plan(ExecutionContext(), orders_row, query), RowScanner
        )
        assert isinstance(
            scan_plan(ExecutionContext(), orders_column, query), ColumnScanner
        )
        assert isinstance(
            scan_plan(
                ExecutionContext(),
                orders_column,
                query,
                ColumnScannerKind.FUSED,
            ),
            FusedColumnScanner,
        )

    def test_unknown_attribute_rejected_at_plan_time(self, orders_row):
        query = ScanQuery("ORDERS", select=("NOPE",))
        with pytest.raises(Exception):
            scan_plan(ExecutionContext(), orders_row, query)


class TestExecutionContext:
    def test_defaults(self):
        context = ExecutionContext()
        assert context.block_size == 100
        assert not context.compressed_execution
