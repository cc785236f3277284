#!/usr/bin/env python3
"""Warehouse reporting: aggregates and a fact-dimension merge join.

The workload the paper's introduction motivates: long read-only
analytic queries over a bulk-loaded star schema.  This example builds a
consistent ORDERS / LINEITEM pair, then runs

1. a grouped aggregate over the fact table (pricing summary by return
   flag, TPC-H Q1 flavour), and
2. a merge join of the fact table with its dimension (revenue per
   order priority, TPC-H Q4 flavour),

on both physical layouts, verifying the answers agree and reporting
where the time goes.

Run with::

    python examples/warehouse_reports.py
"""

import numpy as np

from repro import (
    ExecutionContext,
    Layout,
    Query,
    ScanQuery,
    generate_tpch_pair,
    load_table,
    predicate_for_selectivity,
    run_scan,
)
from repro.cpusim.costmodel import CpuModel
from repro.engine.query import AggregateFunction, AggregateSpec, JoinSide


def pricing_summary(tables, data) -> None:
    """sum(L_EXTENDEDPRICE) group by L_RETURNFLAG, recent lines only."""
    predicate = predicate_for_selectivity(
        "L_SHIPDATE", data.column("L_SHIPDATE"), selectivity=0.25
    )
    scan = ScanQuery(
        "LINEITEM",
        select=("L_SHIPDATE", "L_RETURNFLAG", "L_EXTENDEDPRICE"),
        predicates=(predicate,),
    )
    spec = AggregateSpec(
        group_by=("L_RETURNFLAG",),
        function=AggregateFunction.SUM,
        argument="L_EXTENDEDPRICE",
    )
    report = Query(scan, aggregate=spec)
    print("pricing summary (sum of extended price by return flag):")
    results = {}
    for layout, table in tables.items():
        context = ExecutionContext()
        result = run_scan(table, report, context)
        results[layout] = dict(
            zip(result.column("L_RETURNFLAG"), result.column("sum_L_EXTENDEDPRICE"))
        )
        cpu = CpuModel().breakdown(context.events)
        print(f"  {layout.value:6s} store: {results[layout]}  "
              f"(engine CPU model: {cpu.user * 1e3:.2f} ms at this scale)")
    assert results[Layout.ROW] == results[Layout.COLUMN]
    print("  layouts agree\n")


def revenue_by_priority(order_tables, line_tables, orders) -> None:
    """Join ORDERS with LINEITEM, sum revenue per order priority."""
    orders_query = ScanQuery(
        "ORDERS", select=("O_ORDERKEY", "O_ORDERPRIORITY")
    )
    lineitem_query = ScanQuery(
        "LINEITEM", select=("L_ORDERKEY", "L_EXTENDEDPRICE")
    )
    print("revenue by order priority (merge join + aggregate):")
    results = {}
    for layout in (Layout.ROW, Layout.COLUMN):
        orders_side = JoinSide(
            order_tables[layout], orders_query, "O_ORDERKEY", "L_ORDERKEY"
        )
        joined = run_scan(
            line_tables[layout], Query(lineitem_query, join=orders_side)
        )
        revenue = {}
        for priority, price in zip(
            joined.column("O_ORDERPRIORITY"), joined.column("L_EXTENDEDPRICE")
        ):
            revenue[priority] = revenue.get(priority, 0) + int(price)
        results[layout] = revenue
        print(f"  {layout.value:6s} store: "
              f"{ {k.decode(): v for k, v in sorted(revenue.items())} }")
    assert results[Layout.ROW] == results[Layout.COLUMN]
    print("  layouts agree\n")


def main() -> None:
    orders, lineitem = generate_tpch_pair(num_orders=2_500, seed=7)
    print(
        f"warehouse: {orders.num_rows} orders, {lineitem.num_rows} line items\n"
    )
    line_tables = {
        Layout.ROW: load_table(lineitem, Layout.ROW),
        Layout.COLUMN: load_table(lineitem, Layout.COLUMN),
    }
    order_tables = {
        Layout.ROW: load_table(orders, Layout.ROW),
        Layout.COLUMN: load_table(orders, Layout.COLUMN),
    }
    pricing_summary(line_tables, lineitem)
    revenue_by_priority(order_tables, line_tables, orders)


if __name__ == "__main__":
    main()
