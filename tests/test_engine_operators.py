"""Aggregation, merge-join, and sort operator tests."""

import numpy as np
import pytest

from repro.data.tpch import generate_tpch_pair
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.plan import aggregate_plan, merge_join_plan, scan_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import AggregateFunction, AggregateSpec, ScanQuery
from repro.errors import PlanError
from repro.storage.layout import Layout
from repro.storage.loader import load_table


def reference_groups(keys, values, function):
    out = {}
    for key, value in zip(keys, values):
        out.setdefault(key, []).append(int(value))
    if function == "sum":
        return {k: sum(v) for k, v in out.items()}
    if function == "min":
        return {k: min(v) for k, v in out.items()}
    if function == "max":
        return {k: max(v) for k, v in out.items()}
    if function == "count":
        return {k: len(v) for k, v in out.items()}
    raise AssertionError(function)


@pytest.fixture(scope="module")
def joined_pair():
    orders, lineitem = generate_tpch_pair(600, seed=21)
    return {
        "orders": orders,
        "lineitem": lineitem,
        "orders_col": load_table(orders, Layout.COLUMN),
        "orders_row": load_table(orders, Layout.ROW),
        "line_col": load_table(lineitem, Layout.COLUMN),
        "line_row": load_table(lineitem, Layout.ROW),
    }


class TestAggregates:
    @pytest.mark.parametrize(
        "function",
        [AggregateFunction.SUM, AggregateFunction.MIN, AggregateFunction.MAX],
    )
    def test_hash_aggregate_matches_reference(
        self, lineitem_data, lineitem_column, function
    ):
        query = ScanQuery(
            "LINEITEM", select=("L_RETURNFLAG", "L_QUANTITY")
        )
        spec = AggregateSpec(
            group_by=("L_RETURNFLAG",),
            function=function,
            argument="L_QUANTITY",
        )
        result = execute_plan(
            aggregate_plan(ExecutionContext(), lineitem_column, query, spec)
        )
        expected = reference_groups(
            lineitem_data.column("L_RETURNFLAG"),
            lineitem_data.column("L_QUANTITY"),
            function.value,
        )
        got = dict(
            zip(result.column("L_RETURNFLAG"), result.column(f"{function.value}_L_QUANTITY"))
        )
        assert got == expected

    def test_count(self, lineitem_data, lineitem_row):
        query = ScanQuery("LINEITEM", select=("L_SHIPMODE",))
        spec = AggregateSpec(group_by=("L_SHIPMODE",), function=AggregateFunction.COUNT)
        result = execute_plan(
            aggregate_plan(ExecutionContext(), lineitem_row, query, spec)
        )
        expected = reference_groups(
            lineitem_data.column("L_SHIPMODE"),
            np.zeros(lineitem_data.num_rows),
            "count",
        )
        got = dict(zip(result.column("L_SHIPMODE"), result.column("count")))
        assert got == expected

    def test_avg(self, lineitem_data, lineitem_column):
        query = ScanQuery("LINEITEM", select=("L_RETURNFLAG", "L_QUANTITY"))
        spec = AggregateSpec(
            group_by=("L_RETURNFLAG",),
            function=AggregateFunction.AVG,
            argument="L_QUANTITY",
        )
        result = execute_plan(
            aggregate_plan(ExecutionContext(), lineitem_column, query, spec)
        )
        sums = reference_groups(
            lineitem_data.column("L_RETURNFLAG"),
            lineitem_data.column("L_QUANTITY"),
            "sum",
        )
        counts = reference_groups(
            lineitem_data.column("L_RETURNFLAG"),
            lineitem_data.column("L_QUANTITY"),
            "count",
        )
        got = dict(zip(result.column("L_RETURNFLAG"), result.column("avg_L_QUANTITY")))
        for key, value in got.items():
            assert value == pytest.approx(sums[key] / counts[key])

    def test_grouped_by_two_keys(self, lineitem_data, lineitem_column):
        query = ScanQuery(
            "LINEITEM",
            select=("L_RETURNFLAG", "L_LINESTATUS", "L_QUANTITY"),
        )
        spec = AggregateSpec(
            group_by=("L_RETURNFLAG", "L_LINESTATUS"),
            function=AggregateFunction.SUM,
            argument="L_QUANTITY",
        )
        result = execute_plan(
            aggregate_plan(ExecutionContext(), lineitem_column, query, spec)
        )
        expected = {}
        for f, s, q in zip(
            lineitem_data.column("L_RETURNFLAG"),
            lineitem_data.column("L_LINESTATUS"),
            lineitem_data.column("L_QUANTITY"),
        ):
            expected[(f, s)] = expected.get((f, s), 0) + int(q)
        got = dict(
            zip(
                zip(result.column("L_RETURNFLAG"), result.column("L_LINESTATUS")),
                result.column("sum_L_QUANTITY"),
            )
        )
        assert {k: int(v) for k, v in got.items()} == expected

    def test_sort_based_equals_hash_based(self, lineitem_data, lineitem_column):
        query = ScanQuery("LINEITEM", select=("L_SHIPMODE", "L_QUANTITY"))
        spec = AggregateSpec(
            group_by=("L_SHIPMODE",),
            function=AggregateFunction.SUM,
            argument="L_QUANTITY",
        )
        hash_result = execute_plan(
            aggregate_plan(ExecutionContext(), lineitem_column, query, spec)
        )
        sort_result = execute_plan(
            aggregate_plan(
                ExecutionContext(), lineitem_column, query, spec, sort_based=True
            )
        )
        a = dict(zip(hash_result.column("L_SHIPMODE"), hash_result.column("sum_L_QUANTITY")))
        b = dict(zip(sort_result.column("L_SHIPMODE"), sort_result.column("sum_L_QUANTITY")))
        assert a == b

    def test_aggregate_with_predicate(self, orders_data, orders_column):
        predicate = predicate_for_selectivity(
            "O_ORDERDATE", orders_data.column("O_ORDERDATE"), 0.25
        )
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERDATE", "O_ORDERSTATUS", "O_TOTALPRICE"),
            predicates=(predicate,),
        )
        spec = AggregateSpec(
            group_by=("O_ORDERSTATUS",),
            function=AggregateFunction.SUM,
            argument="O_TOTALPRICE",
        )
        result = execute_plan(
            aggregate_plan(ExecutionContext(), orders_column, query, spec)
        )
        mask = predicate.evaluate(orders_data.column("O_ORDERDATE"))
        expected = reference_groups(
            orders_data.column("O_ORDERSTATUS")[mask],
            orders_data.column("O_TOTALPRICE")[mask],
            "sum",
        )
        got = dict(
            zip(result.column("O_ORDERSTATUS"), result.column("sum_O_TOTALPRICE"))
        )
        assert got == expected

    def test_missing_argument_attribute_rejected(self, orders_column):
        query = ScanQuery("ORDERS", select=("O_ORDERSTATUS",))
        spec = AggregateSpec(
            group_by=("O_ORDERSTATUS",),
            function=AggregateFunction.SUM,
            argument="O_TOTALPRICE",
        )
        with pytest.raises(PlanError):
            aggregate_plan(ExecutionContext(), orders_column, query, spec)

    def test_spec_requires_argument(self):
        with pytest.raises(PlanError):
            AggregateSpec(group_by=("a",), function=AggregateFunction.SUM)

    def test_agg_events_counted(self, lineitem_column):
        context = ExecutionContext()
        query = ScanQuery("LINEITEM", select=("L_RETURNFLAG", "L_QUANTITY"))
        spec = AggregateSpec(
            group_by=("L_RETURNFLAG",),
            function=AggregateFunction.SUM,
            argument="L_QUANTITY",
        )
        execute_plan(aggregate_plan(context, lineitem_column, query, spec))
        assert context.events.agg_updates == lineitem_column.num_rows
        assert context.events.group_lookups == lineitem_column.num_rows


class TestMergeJoin:
    def test_one_to_many_join(self, joined_pair):
        context = ExecutionContext()
        plan = merge_join_plan(
            context,
            joined_pair["orders_col"],
            ScanQuery("ORDERS", select=("O_ORDERKEY", "O_CUSTKEY")),
            joined_pair["line_col"],
            ScanQuery("LINEITEM", select=("L_ORDERKEY", "L_QUANTITY")),
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        result = execute_plan(plan)
        lineitem = joined_pair["lineitem"]
        assert result.num_tuples == lineitem.num_rows
        np.testing.assert_array_equal(
            result.column("L_ORDERKEY"), result.column("O_ORDERKEY")
        )
        # Join carried the correct customer for each line item.
        orders = joined_pair["orders"]
        cust_of = dict(zip(orders.column("O_ORDERKEY"), orders.column("O_CUSTKEY")))
        expected = np.array(
            [cust_of[k] for k in lineitem.column("L_ORDERKEY")], dtype=np.int64
        )
        np.testing.assert_array_equal(result.column("O_CUSTKEY"), expected)

    def test_row_and_column_joins_agree(self, joined_pair):
        results = []
        for kind in ("row", "col"):
            plan = merge_join_plan(
                ExecutionContext(),
                joined_pair[f"orders_{kind}"],
                ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE")),
                joined_pair[f"line_{kind}"],
                ScanQuery("LINEITEM", select=("L_ORDERKEY", "L_EXTENDEDPRICE")),
                left_key="O_ORDERKEY",
                right_key="L_ORDERKEY",
            )
            results.append(execute_plan(plan))
        np.testing.assert_array_equal(
            results[0].column("O_TOTALPRICE"), results[1].column("O_TOTALPRICE")
        )

    def test_join_key_must_be_selected(self, joined_pair):
        with pytest.raises(PlanError):
            merge_join_plan(
                ExecutionContext(),
                joined_pair["orders_col"],
                ScanQuery("ORDERS", select=("O_CUSTKEY",)),
                joined_pair["line_col"],
                ScanQuery("LINEITEM", select=("L_ORDERKEY",)),
                left_key="O_ORDERKEY",
                right_key="L_ORDERKEY",
            )

    def test_duplicate_left_keys_are_a_plan_error(self, joined_pair):
        """LINEITEM's sorted ``L_ORDERKEY`` repeats: on the left it fails
        the uniqueness check (a duplicate sits next to its twin)."""
        plan = merge_join_plan(
            ExecutionContext(),
            joined_pair["line_col"],
            ScanQuery("LINEITEM", select=("L_ORDERKEY",)),
            joined_pair["orders_col"],
            ScanQuery("ORDERS", select=("O_ORDERKEY",)),
            left_key="L_ORDERKEY",
            right_key="O_ORDERKEY",
        )
        with pytest.raises(PlanError, match="unique keys on the left"):
            execute_plan(plan)

    def test_comparisons_counted(self, joined_pair):
        context = ExecutionContext()
        plan = merge_join_plan(
            context,
            joined_pair["orders_col"],
            ScanQuery("ORDERS", select=("O_ORDERKEY",)),
            joined_pair["line_col"],
            ScanQuery("LINEITEM", select=("L_ORDERKEY",)),
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        execute_plan(plan)
        orders = joined_pair["orders"]
        lineitem = joined_pair["lineitem"]
        assert (
            context.events.join_comparisons
            == orders.num_rows + lineitem.num_rows
        )


class TestSort:
    def test_sort_operator(self, orders_data, orders_column):
        from repro.engine.operators.sort import SortOperator

        context = ExecutionContext()
        scan = scan_plan(
            context,
            orders_column,
            ScanQuery("ORDERS", select=("O_CUSTKEY", "O_TOTALPRICE")),
        )
        plan = SortOperator(context, scan, key="O_TOTALPRICE")
        result = execute_plan(plan)
        prices = result.column("O_TOTALPRICE")
        assert (np.diff(prices) >= 0).all()
        assert context.events.sort_comparisons > orders_data.num_rows

    def test_sort_descending(self, orders_data, orders_column):
        from repro.engine.operators.sort import SortOperator

        context = ExecutionContext()
        scan = scan_plan(
            context, orders_column, ScanQuery("ORDERS", select=("O_TOTALPRICE",))
        )
        plan = SortOperator(context, scan, key="O_TOTALPRICE", descending=True)
        result = execute_plan(plan)
        assert (np.diff(result.column("O_TOTALPRICE")) <= 0).all()
