"""Batches: what ``next()`` hands off against what is accounted.

``next()`` hands over a batch — a row or PAX scan's prefetch window of
qualifying tuples, a column scan's I/O unit, or a materializing
operator's whole output — stamped with the logical blocks
it stands for (DESIGN.md, "Scan core").  Three contracts:

* **differential** — every operator above a ROW, PAX or COLUMN scan has
  the events, result bytes, logical blocks and checkpoints of the same
  plan over a page-at-a-time scan (a context whose I/O unit is one
  page, read one unit at a time), which hands over a page's worth at a
  time;
* **governance** — a cancel or a deadline at *every* checkpoint of such
  a plan is the typed error and nothing else, with no more pages charged
  than checkpoints passed;
* **pins** — where the hand-off size could leak into the modeled clock
  (a ``Limit`` ending inside a page, a memory budget reserved block by
  block, top-N's per-block comparison charge), the numbers are those of
  the 100-tuple block iterator, measured on the commit before batches.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.tpch import generate_lineitem, generate_orders
from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.governance import QueryContext
from repro.engine.operators import Limit, SortOperator, TopN
from repro.engine.plan import ColumnScannerKind, build_plan, scan_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import AggregateFunction, AggregateSpec, JoinSide, Query, ScanQuery
from repro.errors import MemoryBudgetExceeded, QueryCancelled, QueryTimeout
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from tests.scan_golden import _digest, _events

#: Small pages, so a few hundred rows span several I/O units of
#: ``UNIT_PAGES`` pages each: 13-tuple row pages, 59-value column pages.
PAGE_SIZES = {Layout.ROW: 2048, Layout.PAX: 2048, Layout.COLUMN: 256}
UNIT_PAGES = 4
ROWS = 260

LAYOUTS = {
    "row": (Layout.ROW, ColumnScannerKind.PIPELINED),
    "pax": (Layout.PAX, ColumnScannerKind.PIPELINED),
    "pipelined": (Layout.COLUMN, ColumnScannerKind.PIPELINED),
    "fused": (Layout.COLUMN, ColumnScannerKind.FUSED),
}


@functools.lru_cache(maxsize=None)
def _tables(layout: Layout):
    lineitem = generate_lineitem(ROWS, seed=21)
    orders = generate_orders(int(lineitem.columns["L_ORDERKEY"].max()), seed=21)
    return (
        lineitem,
        load_table(lineitem, layout, page_size=PAGE_SIZES[layout]),
        load_table(orders, layout, page_size=PAGE_SIZES[layout]),
    )


def _shapes(layout: Layout) -> dict[str, Query]:
    """One query per operator that sits above a scan."""
    lineitem, _table, orders = _tables(layout)
    half = predicate_for_selectivity("L_PARTKEY", lineitem.columns["L_PARTKEY"], 0.5)
    scan = ScanQuery(
        "LINEITEM", select=("L_ORDERKEY", "L_PARTKEY", "L_QUANTITY"), predicates=(half,)
    )
    by_quantity = AggregateSpec(("L_QUANTITY",), AggregateFunction.SUM, "L_PARTKEY")
    return {
        "scan": Query(scan),
        "limit": Query(scan, limit=45),
        "sort": Query(scan, order_by=("L_QUANTITY", "L_PARTKEY")),
        "sort-limit": Query(scan, order_by=("L_PARTKEY",), limit=110),
        "topn": Query(scan, topn=("L_PARTKEY", 12, True)),
        "hash-aggregate": Query(scan, aggregate=by_quantity),
        "sort-aggregate": Query(scan, aggregate=by_quantity, sort_based=True),
        "merge-join": Query(
            scan,
            join=JoinSide(
                orders,
                ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE")),
                "O_ORDERKEY",
                "L_ORDERKEY",
            ),
        ),
    }


def _context(
    layout: Layout, unit_pages: int, hook=None, depth: int | None = None, **fields
) -> ExecutionContext:
    """I/O units of ``unit_pages`` pages, ``depth`` of them to a row or
    PAX scan's read (the calibration's prefetch depth unless said; one
    for one-page units: the page-at-a-time scan)."""
    if depth is None:
        depth = 1 if unit_pages == 1 else DEFAULT_CALIBRATION.default_prefetch_depth
    calibration = DEFAULT_CALIBRATION.with_overrides(
        io_unit_bytes=unit_pages * PAGE_SIZES[layout], default_prefetch_depth=depth
    )
    return ExecutionContext(
        calibration=calibration, governance=QueryContext(on_tick=hook), **fields
    )


def _run(name: str, shape: str, unit_pages: int, **fields) -> dict:
    layout, kind = LAYOUTS[name]
    context = _context(layout, unit_pages, **fields)
    plan = build_plan(context, _tables(layout)[1], _shapes(layout)[shape], kind)
    batches = plan.drain()
    result = concat_blocks(batches)
    return {
        "events": _events(context.events),
        "digest": _digest(result),
        "rows": len(result),
        "blocks": [batch.block_sizes().tolist() for batch in batches if len(batch)],
        "pages_scanned": context.corruption.pages_scanned,
        "ticks": context.governance.ticks,
    }


@pytest.mark.parametrize("shape", list(_shapes(Layout.ROW)))
@pytest.mark.parametrize("name", list(LAYOUTS))
class TestOperatorsByUnitAgainstByPage:
    def test_events_bytes_blocks_and_ticks_do_not_depend_on_the_unit(self, name, shape):
        by_unit = _run(name, shape, UNIT_PAGES)
        by_page = _run(name, shape, 1)
        # The same logical blocks, however many the root handed over at once.
        assert sum(by_unit.pop("blocks"), []) == sum(by_page.pop("blocks"), [])
        assert by_unit == by_page
        assert by_unit["rows"] > 0

    def test_logical_blocks_keep_to_the_block_size(self, name, shape):
        by_unit = _run(name, shape, UNIT_PAGES, block_size=37)
        by_page = _run(name, shape, 1, block_size=37)
        sizes = sum(by_unit.pop("blocks"), [])
        assert max(sizes) <= 37 and sum(sizes) == by_unit["rows"]
        assert sizes == sum(by_page.pop("blocks"), [])
        assert by_unit == by_page

    @pytest.mark.parametrize("error", [QueryCancelled, QueryTimeout])
    def test_an_abort_at_every_checkpoint_is_typed_with_nothing_partial(
        self, name, shape, error
    ):
        layout, kind = LAYOUTS[name]
        ticks = _run(name, shape, UNIT_PAGES)["ticks"]
        assert ticks > 2 * UNIT_PAGES
        for k in range(1, ticks + 1):

            def hook(governance, k=k):
                if governance.ticks == k:
                    if error is QueryCancelled:
                        governance.token.cancel("at every checkpoint")
                    else:
                        governance.deadline = time.monotonic() - 1.0

            context = _context(layout, UNIT_PAGES, hook)
            plan = build_plan(context, _tables(layout)[1], _shapes(layout)[shape], kind)
            with pytest.raises(error):
                plan.drain()
            # It landed at that checkpoint, before anything it guards was charged.
            assert context.governance.ticks == k
            assert context.events.pages_touched < k


def test_a_row_scan_hands_over_a_unit_and_a_limit_only_what_it_wants():
    """The mechanism, by count: one ``next()`` per prefetch window with
    qualifiers — and under a ``Limit``, which reads a unit at a time, the
    batch ends at the logical block that satisfies it, the pages behind
    it unreleased."""
    _lineitem, table, _orders = _tables(Layout.ROW)
    query = ScanQuery("LINEITEM", select=("L_ORDERKEY",))
    capacity = table.page_codec.tuples_per_page
    pages = table.file.num_pages

    for depth in (DEFAULT_CALIBRATION.default_prefetch_depth, 2):
        window = UNIT_PAGES * depth
        context = _context(Layout.ROW, UNIT_PAGES, depth=depth)
        batches = scan_plan(context, table, query).drain()
        assert len(batches) == -(-pages // window)
        assert [batch.num_blocks for batch in batches[:-1]] == [window] * (len(batches) - 1)
        assert context.events.blocks_produced == pages
    assert len(batches) > 2  # the table spans several two-unit windows

    context = _context(Layout.ROW, UNIT_PAGES)
    limited = Limit(context, scan_plan(context, table, query), capacity + 1).drain()
    assert [batch.block_sizes().tolist() for batch in limited] == [[capacity, 1]]
    assert context.events.pages_touched == context.corruption.pages_scanned == 2
    # Limit's and the scan's next(), two pages, a second logical block
    # each, and the next() that Limit answers without asking the scan.
    assert context.governance.ticks == 2 + 2 + 2 + 1


# --- pinned against the 100-tuple block iterator (measured at ec52efa) ---------


@functools.lru_cache(maxsize=None)
def _lineitem_6000(layout: Layout):
    data = generate_lineitem(6_000, seed=77)
    return data, load_table(data, layout)


class TestPinnedAgainstTheBlockIterator:
    @pytest.mark.parametrize(
        "limit, pages, blocks, ticks", [(50, 1, 4, 6), (130, 2, 10, 13), (300, 3, 20, 24)]
    )
    def test_a_limit_ending_inside_a_page(self, limit, pages, blocks, ticks):
        """37-tuple blocks over 127-tuple ORDERS pages: the limit ends
        mid-page and mid-block, the page's later blocks never handed off."""
        table = load_table(generate_orders(2_000, seed=5), Layout.ROW)
        assert table.page_codec.tuples_per_page == 127
        query = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_CUSTKEY"))
        outcomes = []
        for unit_bytes in (DEFAULT_CALIBRATION.io_unit_bytes, table.page_size):
            context = ExecutionContext(
                block_size=37,
                calibration=DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=unit_bytes),
                governance=QueryContext(),
            )
            batches = Limit(context, scan_plan(context, table, query), limit).drain()
            outcomes.append(
                (
                    sum(len(batch) for batch in batches),
                    context.events.as_dict(),
                    context.corruption.pages_scanned,
                    context.governance.ticks,
                )
            )
        assert outcomes[0] == outcomes[1]
        rows, events, pages_scanned, ticked = outcomes[0]
        assert rows == limit and ticked == ticks
        assert events["pages_touched"] == pages_scanned == pages
        assert events["tuples_examined"] == pages * 127
        assert events["blocks_produced"] == blocks

    @staticmethod
    def _sort(layout: Layout, budget: int):
        data, table = _lineitem_6000(layout)
        half = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 0.5)
        query = ScanQuery(
            "LINEITEM", select=("L_PARTKEY", "L_ORDERKEY", "L_QUANTITY"), predicates=(half,)
        )
        context = ExecutionContext(
            governance=QueryContext.start(memory_budget=budget, label="q")
        )
        return context, SortOperator(context, scan_plan(context, table, query), key="L_PARTKEY")

    @pytest.mark.parametrize(
        "layout, kept, was, peak",
        [(Layout.ROW, "12,540", "40,128", 39_648), (Layout.COLUMN, "13,000", "41,600", 38_400)],
        ids=["ROW", "COLUMN"],
    )
    def test_the_narrow_retry_comes_at_the_same_block(self, layout, kept, was, peak):
        context, plan = self._sort(layout, 40_000)
        result = execute_plan(plan)
        governance = context.governance
        assert governance.outcomes == [
            f"sort: reduced-width retry kept the working set at {kept} B (was {was} B)"
        ]
        assert governance.memory_peak == peak and governance.memory_used == 0
        assert len(result.positions) == 3_000
        assert result.columns["L_PARTKEY"].dtype == np.int64

    @pytest.mark.parametrize(
        "layout, needed, held",
        [(Layout.ROW, "20,040", "19,900"), (Layout.COLUMN, "21,000", "20,000")],
        ids=["ROW", "COLUMN"],
    )
    def test_the_budget_abort_needs_the_same_bytes(self, layout, needed, held):
        context, plan = self._sort(layout, 20_000)
        with pytest.raises(MemoryBudgetExceeded) as raised:
            execute_plan(plan)
        assert str(raised.value) == (
            f"q: sort needs {needed} B beyond the 20,000 B budget ({held} B held) "
            "even after a reduced-width retry"
        )
        assert context.governance.outcomes[-1] == (
            f"memory budget exceeded in sort: needed {needed} B (+{held} B held) of 20,000 B"
        )

    @pytest.mark.parametrize(
        "layout, count, block_size, comparisons, blocks",
        [
            # ROW hands off per page (52 tuples), COLUMN per 100 tuples.
            (Layout.ROW, 10, 100, 20_539, 232),
            (Layout.COLUMN, 10, 100, 20_700, 121),
            (Layout.ROW, 7, 37, 18_000, 232),
            (Layout.COLUMN, 7, 37, 18_000, 327),
        ],
    )
    def test_topn_charges_its_comparisons_block_by_block(
        self, layout, count, block_size, comparisons, blocks
    ):
        _data, table = _lineitem_6000(layout)
        query = ScanQuery("LINEITEM", select=("L_PARTKEY", "L_ORDERKEY"))
        context = ExecutionContext(block_size=block_size)
        plan = TopN(
            context, scan_plan(context, table, query), key="L_PARTKEY", count=count,
            descending=True,
        )
        result = execute_plan(plan)
        assert context.events.sort_comparisons == comparisons
        assert context.events.blocks_produced == blocks
        assert result.positions[:3].tolist() == [4725, 5329, 857]
