"""The pipelined column scan's fixed cost: per-table node constants and a
deterministic count of the engine's own calls per query.

The gauge counts only the frames whose code lives under ``src/repro``
(``sys.setprofile``), so a numpy version does not move it; it bounds the
0.1 % 8-attribute COLUMN query — one dense node, seven position-driven
ones — and a one-page COLUMN query.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro
from repro import Database, Layout, ScanQuery, apply_fig5_compression, generate_lineitem
from repro import generate_orders, load_table, run_scan
from repro.engine.operators.scan_column import column_node
from repro.engine.predicate import predicate_for_selectivity

SOURCE = os.path.dirname(repro.__file__)
#: The reference projection, then four more attributes.
WIDE = (
    "L_PARTKEY",
    "L_ORDERKEY",
    "L_SUPPKEY",
    "L_LINENUMBER",
    "L_QUANTITY",
    "L_EXTENDEDPRICE",
    "L_DISCOUNT",
    "L_TAX",
)
#: Engine calls per query, measured when these bounds were set (before
#: the column nodes' constants and one line charge, in brackets): 8
#: attributes at 0.1 % of 30,000 rows, 353 plain and 372 Fig-5 (555,
#: 578); one page at 10 %, 221 and 236 (312, 330).
WIDE_BOUND = 390
ONE_PAGE_BOUND = 250


def engine_calls(table, query) -> int:
    """Frames of ``src/repro`` code that one warm ``run_scan`` enters."""
    run_scan(table, query)  # node constants are built on first use
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SOURCE):
            calls += 1

    sys.setprofile(count)
    try:
        run_scan(table, query)
    finally:
        sys.setprofile(None)
    return calls


def _query(data, select, selectivity) -> ScanQuery:
    predicate = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], selectivity)
    return ScanQuery(data.schema.name, select=select, predicates=(predicate,))


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
def test_call_gauge_of_a_selective_wide_query(compressed):
    data = generate_lineitem(30_000, seed=7)
    if compressed:
        data = apply_fig5_compression(data)
    table = load_table(data, Layout.COLUMN)
    query = _query(data, WIDE, 0.001)
    assert 0 < run_scan(table, query).num_tuples < 100
    assert engine_calls(table, query) <= WIDE_BOUND


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
def test_call_gauge_of_a_one_page_query(compressed):
    data = generate_lineitem(100, seed=7)
    if compressed:
        data = apply_fig5_compression(data)
    table = load_table(data, Layout.COLUMN)
    assert table.column_file("L_PARTKEY").file.num_pages == 1
    assert engine_calls(table, _query(data, WIDE[:4], 0.1)) <= ONE_PAGE_BOUND


def test_node_constants_are_built_once_per_loaded_table():
    data = generate_orders(3_000, seed=5)
    table = load_table(data, Layout.COLUMN)
    assert table.scan_nodes == {}
    query = ScanQuery(
        "ORDERS",
        select=("O_ORDERDATE", "O_TOTALPRICE"),
        predicates=(predicate_for_selectivity("O_ORDERDATE", data.columns["O_ORDERDATE"], 0.2),),
    )
    first = run_scan(table, query)
    nodes = dict(table.scan_nodes)
    assert set(nodes) == {"O_ORDERDATE", "O_TOTALPRICE"}
    second = run_scan(table, query)
    assert all(table.scan_nodes[name] is node for name, node in nodes.items())
    np.testing.assert_array_equal(first.positions, second.positions)


def test_a_table_reloaded_by_a_merge_gets_fresh_node_constants():
    """The merged table is a new table with its own row count: its nodes
    are built afresh, and the old table's are left as they were."""
    data = generate_orders(3_000, seed=5)
    extra = generate_orders(700, seed=6)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data)
    select = ("O_ORDERKEY", "O_TOTALPRICE")
    db.query("ORDERS", select)
    old = db.table("ORDERS")
    old_node = column_node(old, "O_TOTALPRICE")
    assert old.scan_nodes["O_TOTALPRICE"] is old_node

    names = data.schema.attribute_names
    db.insert_many("ORDERS", list(zip(*(extra.columns[name].tolist() for name in names))))
    db.merge("ORDERS")
    new = db.table("ORDERS")
    assert new is not old and new.num_rows == old.num_rows + 700
    assert new.scan_nodes == {}

    merged = db.query("ORDERS", select)
    expected = data.columns["O_TOTALPRICE"]
    np.testing.assert_array_equal(
        merged.column("O_TOTALPRICE"), np.concatenate([expected, extra.columns["O_TOTALPRICE"]])
    )
    node = new.scan_nodes["O_TOTALPRICE"]
    assert node is not old_node and node.column_file is new.column_file("O_TOTALPRICE")
    column_file = new.column_file("O_TOTALPRICE")
    pages = range(column_file.file.num_pages)
    spans = [column_file.row_span_of_page(page, new.num_rows) for page in pages]
    assert [node.span_of(page) for page in pages] == spans
    assert old.scan_nodes["O_TOTALPRICE"] is old_node
