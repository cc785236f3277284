"""Plan builders: query specs → operator trees.

The paper uses precompiled plans with an identical operator layer above
the scanners; :func:`build_plan` is that precompilation step.  The same
:class:`~repro.engine.query.Query` yields interchangeable plans for
row, PAX and column tables.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from repro.engine.context import ExecutionContext
from repro.engine.operators.aggregate import HashAggregate, SortAggregate
from repro.engine.operators.base import Operator
from repro.engine.operators.gather import GatherOperator
from repro.engine.operators.limit import Limit, TopN
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.scan_column import ColumnScanner
from repro.engine.operators.scan_fused import FusedColumnScanner
from repro.engine.operators.scan_pax import PaxScanner
from repro.engine.operators.scan_row import RowScanner
from repro.engine.operators.sort import SortOperator
from repro.engine.query import (
    AggregateFunction,
    AggregateSpec,
    JoinSide,
    Query,
    ScanQuery,
)
from repro.errors import PlanError
from repro.storage.table import ColumnTable, PaxTable, RowTable, Table


class ColumnScannerKind(enum.Enum):
    """Which column-scanner architecture to plan (Section 4.2)."""

    PIPELINED = "pipelined"
    FUSED = "fused"


def scan_plan(
    context: ExecutionContext,
    table: Table,
    query: ScanQuery,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    row_range: tuple[int, int] | None = None,
) -> Operator:
    """A scanner for ``query`` matching the table's physical layout.

    ``row_range`` restricts the scan to the half-open global row window
    ``[lo, hi)`` — the unit of horizontal partitioning that
    :mod:`repro.engine.parallel` fans out across workers.  Emitted
    positions remain global Record IDs.
    """
    query.validate_against(table.schema)
    if isinstance(table, RowTable):
        return RowScanner(
            context, table, query.select, query.predicates, row_range=row_range
        )
    if isinstance(table, PaxTable):
        return PaxScanner(
            context, table, query.select, query.predicates, row_range=row_range
        )
    if isinstance(table, ColumnTable):
        if column_scanner is ColumnScannerKind.FUSED:
            return FusedColumnScanner(
                context, table, query.select, query.predicates, row_range=row_range
            )
        return ColumnScanner(
            context, table, query.select, query.predicates, row_range=row_range
        )
    raise PlanError(f"unsupported table type: {type(table).__name__}")


def build_plan(
    context: ExecutionContext,
    table: Table,
    query: ScanQuery | Query,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    row_range: tuple[int, int] | None = None,
) -> Operator:
    """The operator tree for ``query`` over ``table``.

    The one place operators are stacked over a scan: the serial
    executor drains this tree, the parallel executor builds it per
    partition (``row_range``), and :func:`aggregate_plan` /
    :func:`merge_join_plan` are its keyword forms.
    """
    if isinstance(query, ScanQuery):
        return scan_plan(context, table, query, column_scanner, row_range)
    if query.join is not None:
        side = query.join
        if side.left_key not in side.scan.select:
            raise PlanError(f"left scan must select the join key {side.left_key!r}")
        if side.right_key not in query.scan.select:
            raise PlanError(f"right scan must select the join key {side.right_key!r}")
        left = scan_plan(context, side.table, side.scan, column_scanner)
        right = scan_plan(context, table, query.scan, column_scanner, row_range)
        return MergeJoin(context, left, right, side.left_key, side.right_key)
    spec = query.aggregate
    if spec is not None:
        needed = set(spec.group_by)
        if spec.argument is not None:
            needed.add(spec.argument)
        missing = needed - set(query.scan.select)
        if missing:
            raise PlanError(
                "aggregate needs attributes not selected by the scan: "
                f"{sorted(missing)}"
            )
        if query.sort_based and not spec.group_by:
            raise PlanError("sort-based aggregation requires a group-by key")
    plan = scan_plan(context, table, query.scan, column_scanner, row_range)
    # Chain stable sorts from the least-significant key outward: stable
    # sorts compose, so the output is ordered lexicographically on the
    # full key — and SortAggregate's run detection (which splits on
    # *all* group-by keys) sees each group as one contiguous run.
    sort_keys = query.order_by
    if spec is not None and query.sort_based:
        sort_keys = spec.group_by
    for key in reversed(sort_keys):
        plan = SortOperator(context, plan, key=key)
    if spec is not None:
        return _aggregate(context, plan, spec, query.sort_based)
    if query.topn is not None:
        key, count, descending = query.topn
        return TopN(context, plan, key=key, count=count, descending=descending)
    if query.limit is not None:
        return Limit(context, plan, query.limit)
    return plan


def _aggregate(context: ExecutionContext, plan: Operator, spec: AggregateSpec, sort_based: bool):
    """The aggregate node of ``spec`` over ``plan``."""
    if sort_based:
        return SortAggregate(context, plan, spec)
    return HashAggregate(context, plan, spec)


def partial_plans(
    context: ExecutionContext,
    table: Table,
    query: Query,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    row_range: tuple[int, int] | None = None,
) -> list[Operator]:
    """One plan per partial of ``query``'s aggregate
    (:func:`decompose_aggregate`) over one partition (``row_range``).
    Several (AVG's SUM and COUNT) aggregate the blocks of one scan and
    sort chain, drained here."""
    specs = decompose_aggregate(query.aggregate)
    plan = build_plan(context, table, replace(query, aggregate=specs[0]), column_scanner, row_range)
    if len(specs) == 1:
        return [plan]
    blocks = plan.child.drain()
    return [
        _aggregate(context, GatherOperator(context, blocks, "scanned once"), spec, query.sort_based)
        for spec in specs
    ]


def aggregate_plan(
    context: ExecutionContext,
    table: Table,
    query: ScanQuery,
    spec: AggregateSpec,
    sort_based: bool = False,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    row_range: tuple[int, int] | None = None,
) -> Operator:
    """Aggregation over a scan; optionally sort-based (adds a sort)."""
    request = Query(query, aggregate=spec, sort_based=sort_based)
    return build_plan(context, table, request, column_scanner, row_range)


def decompose_aggregate(spec: AggregateSpec) -> tuple[AggregateSpec, ...]:
    """The per-partition partial aggregates that reassemble ``spec``.

    COUNT/SUM/MIN/MAX are self-decomposable; AVG splits into a SUM and
    a COUNT whose merged ratio reproduces the serial float64 result
    exactly for integer inputs below 2**53.  The partials share the
    final spec's group-by key, so
    :class:`~repro.engine.operators.gather.MergePartials` can regroup
    their outputs with the same ``np.unique`` machinery the serial
    :class:`~repro.engine.operators.aggregate.HashAggregate` uses.
    """
    if spec.function is AggregateFunction.AVG:
        return (
            AggregateSpec(spec.group_by, AggregateFunction.SUM, spec.argument),
            AggregateSpec(spec.group_by, AggregateFunction.COUNT, None),
        )
    return (spec,)


def merge_join_plan(
    context: ExecutionContext,
    left_table: Table,
    left_query: ScanQuery,
    right_table: Table,
    right_query: ScanQuery,
    left_key: str,
    right_key: str,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
) -> Operator:
    """Scan both tables and merge-join them on sorted keys."""
    side = JoinSide(left_table, left_query, left_key, right_key)
    request = Query(right_query, join=side)
    return build_plan(context, right_table, request, column_scanner)
