"""One query value, one plan builder.

:class:`~repro.engine.query.Query` is the request every executor takes
and :func:`~repro.engine.plan.build_plan` the only code that stacks
operators over a scan.  For every result shape the serial tree, the
inline partition-and-merge, the worker fleet and the pure-Python oracle
must agree on all four scanner architectures; the shape constraints
live in ``Query`` itself; executors that cannot run a shape say so with
a typed :class:`~repro.errors.PlanError`; and a walk over ``src/repro``
pins that nobody else constructs the shape operators.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.data.tpch import generate_orders, generate_tpch_pair
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.parallel import parallel_query
from repro.engine.plan import ColumnScannerKind, build_plan, merge_join_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import (
    AggregateFunction,
    AggregateSpec,
    JoinSide,
    Query,
    ScanQuery,
)
from repro.engine.scheduler import Scheduler
from repro.errors import PlanError
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.oracle import (
    OracleResult,
    oracle_aggregate,
    oracle_limit,
    oracle_merge_join,
    oracle_scan,
    oracle_topn,
    pyvalue,
)

ROWS = 700  # not divisible by 3: uneven partitions

ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)

STATUS_SUM = AggregateSpec(("O_ORDERSTATUS",), AggregateFunction.SUM, "O_TOTALPRICE")
STATUS_AVG = AggregateSpec(("O_ORDERSTATUS",), AggregateFunction.AVG, "O_TOTALPRICE")
TWO_KEY_AVG = AggregateSpec(
    ("O_ORDERSTATUS", "O_ORDERPRIORITY"), AggregateFunction.AVG, "O_TOTALPRICE"
)
TWO_KEY_COUNT = AggregateSpec(
    ("O_ORDERSTATUS", "O_ORDERPRIORITY"), AggregateFunction.COUNT, None
)

#: name → the shape stacked on the scan.  O_ORDERSTATUS has three
#: distinct values, so sorts and top-N are decided by tie-breaking.
SHAPES = {
    "plain": {},
    "hash-sum": {"aggregate": STATUS_SUM},
    "hash-avg": {"aggregate": STATUS_AVG},
    "hash-two-keys": {"aggregate": TWO_KEY_COUNT},
    "sort-sum": {"aggregate": STATUS_SUM, "sort_based": True},
    "sort-avg-two-keys": {"aggregate": TWO_KEY_AVG, "sort_based": True},
    "order-by-two-keys": {"order_by": ("O_ORDERSTATUS", "O_TOTALPRICE")},
    "order-by-limit": {"order_by": ("O_ORDERSTATUS", "O_ORDERKEY"), "limit": 23},
    "limit": {"limit": 301},
    "topn-asc-ties": {"topn": ("O_ORDERSTATUS", 17, False)},
    "topn-desc-ties": {"topn": ("O_ORDERSTATUS", 17, True)},
}


@pytest.fixture(scope="module")
def data():
    return generate_orders(ROWS, seed=29)


@pytest.fixture(scope="module")
def tables(data):
    return {layout: load_table(data, layout) for layout in Layout}


@pytest.fixture(scope="module")
def scan(data):
    predicate = predicate_for_selectivity(
        "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.6
    )
    return ScanQuery(
        "ORDERS",
        select=("O_ORDERKEY", "O_TOTALPRICE", "O_ORDERSTATUS", "O_ORDERPRIORITY"),
        predicates=(predicate,),
    )


def _oracle(data, query: Query) -> OracleResult:
    """The pure-Python answer for one shaped query."""
    if query.aggregate is not None:
        return oracle_aggregate(data, query.scan, query.aggregate)
    scanned = oracle_scan(data, query.scan)
    if query.order_by:
        keys = [scanned.names.index(name) for name in query.order_by]
        # One stable sort on the key tuple == the engine's chained
        # stable sorts: ties stay in Record-ID order.
        order = sorted(
            range(scanned.num_tuples),
            key=lambda i: tuple(scanned.rows[i][k] for k in keys),
        )
        scanned = OracleResult(
            names=scanned.names,
            positions=[scanned.positions[i] for i in order],
            rows=[scanned.rows[i] for i in order],
        )
    if query.topn is not None:
        return oracle_topn(scanned, *query.topn)
    if query.limit is not None:
        return oracle_limit(scanned, query.limit)
    return scanned


def _rows(result, names):
    return [
        tuple(pyvalue(v) for v in row)
        for row in zip(*(result.columns[name].tolist() for name in names))
    ]


def assert_same(got, want, label=""):
    assert np.array_equal(got.positions, want.positions), label
    assert list(got.columns) == list(want.columns), label
    for name, values in want.columns.items():
        assert got.columns[name].dtype == values.dtype, (label, name)
        assert np.array_equal(got.columns[name], values), (label, name)


def assert_matches_oracle(result, expected: OracleResult, grouped: bool):
    got = _rows(result, expected.names)
    if not grouped:
        assert got == expected.rows
        assert result.positions.tolist() == expected.positions
        return
    # Group order is an engine detail the oracle does not model.
    got, want = sorted(got), sorted(expected.rows)
    assert [row[:-1] for row in got] == [row[:-1] for row in want]
    assert [row[-1] for row in got] == pytest.approx([row[-1] for row in want])


class TestEveryShapeOnEveryExecutor:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_serial_inline_fleet_and_oracle_agree(
        self, data, tables, scan, shape, arch, layout, kind
    ):
        table = tables[layout]
        query = Query(scan, **SHAPES[shape])
        serial = execute_plan(build_plan(ExecutionContext(), table, query, kind))
        assert_same(run_scan(table, query, column_scanner=kind), serial, "run_scan")
        inline = parallel_query(table, query, workers=1, column_scanner=kind)
        fleet = parallel_query(
            table, query, workers=2, partitions=3, column_scanner=kind
        )
        assert_same(inline, serial, "workers=1")
        assert_same(fleet, serial, "workers=2 partitions=3")
        assert_matches_oracle(
            serial, _oracle(data, query), grouped=query.aggregate is not None
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_legacy_keywords_build_the_same_query(self, tables, scan, shape):
        table = tables[Layout.COLUMN]
        by_value = parallel_query(table, Query(scan, **SHAPES[shape]), workers=1)
        by_keyword = parallel_query(table, scan, workers=1, **SHAPES[shape])
        assert_same(by_keyword, by_value)
        assert by_keyword.events.as_dict() == by_value.events.as_dict()

    def test_a_bare_scan_query_is_its_plain_query(self, tables, scan):
        table = tables[Layout.ROW]
        plain, wrapped = ExecutionContext(), ExecutionContext()
        assert_same(run_scan(table, Query(scan), wrapped), run_scan(table, scan, plain))
        assert wrapped.events.as_dict() == plain.events.as_dict()


class TestMergeJoin:
    @pytest.fixture(scope="class")
    def pair(self):
        return generate_tpch_pair(120, seed=5)

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_join_query_equals_legacy_builder_and_oracle(
        self, pair, arch, layout, kind
    ):
        orders, lineitem = pair
        left = ScanQuery(
            "ORDERS",
            select=("O_ORDERKEY", "O_CUSTKEY"),
            predicates=(
                predicate_for_selectivity(
                    "O_TOTALPRICE", orders.column("O_TOTALPRICE"), 0.5
                ),
            ),
        )
        right = ScanQuery("LINEITEM", select=("L_ORDERKEY", "L_QUANTITY"))
        left_table = load_table(orders, layout)
        right_table = load_table(lineitem, layout)
        query = Query(
            right, join=JoinSide(left_table, left, "O_ORDERKEY", "L_ORDERKEY")
        )
        result = run_scan(right_table, query, column_scanner=kind)
        legacy = execute_plan(
            merge_join_plan(
                ExecutionContext(),
                left_table,
                left,
                right_table,
                right,
                "O_ORDERKEY",
                "L_ORDERKEY",
                column_scanner=kind,
            )
        )
        assert_same(result, legacy, arch)
        expected = oracle_merge_join(
            orders, left, lineitem, right, "O_ORDERKEY", "L_ORDERKEY"
        )
        assert 0 < expected.num_tuples < lineitem.num_rows
        assert_matches_oracle(result, expected, grouped=False)

    def test_parallel_executor_rejects_a_join(self, pair):
        orders, lineitem = pair
        side = JoinSide(
            load_table(orders, Layout.COLUMN),
            ScanQuery("ORDERS", select=("O_ORDERKEY",)),
            "O_ORDERKEY",
            "L_ORDERKEY",
        )
        query = Query(ScanQuery("LINEITEM", select=("L_ORDERKEY",)), join=side)
        with pytest.raises(PlanError, match="not decomposable"):
            parallel_query(load_table(lineitem, Layout.COLUMN), query, workers=2)

    def test_join_keys_must_be_selected(self, pair):
        orders, lineitem = pair
        side = JoinSide(
            load_table(orders, Layout.ROW),
            ScanQuery("ORDERS", select=("O_CUSTKEY",)),
            "O_ORDERKEY",
            "L_ORDERKEY",
        )
        query = Query(ScanQuery("LINEITEM", select=("L_ORDERKEY",)), join=side)
        with pytest.raises(PlanError, match="left scan must select"):
            build_plan(ExecutionContext(), load_table(lineitem, Layout.ROW), query)


class TestShapeConstraints:
    """``Query.__post_init__`` owns what ``parallel_query`` used to check
    (``TestApiConstraints.test_conflicting_shapes_rejected`` pins the
    same errors through the keywords)."""

    COUNT = AggregateSpec((), AggregateFunction.COUNT, None)

    @pytest.mark.parametrize(
        "shape",
        [
            {"aggregate": COUNT, "order_by": ("O_ORDERKEY",)},
            {"aggregate": COUNT, "topn": ("O_ORDERKEY", 3, False)},
            {"order_by": ("O_ORDERKEY",), "topn": ("O_ORDERKEY", 3, False)},
            {"aggregate": COUNT, "limit": 5},
            {"topn": ("O_ORDERKEY", 3, False), "limit": 5},
        ],
    )
    def test_conflicting_shapes_rejected(self, scan, tables, shape):
        with pytest.raises(PlanError):
            Query(scan, **shape)
        with pytest.raises(PlanError):
            parallel_query(tables[Layout.ROW], scan, **shape)

    def test_a_join_takes_no_other_shape(self, scan, tables):
        side = JoinSide(tables[Layout.ROW], scan, "O_ORDERKEY", "O_ORDERKEY")
        Query(scan, join=side)
        for shape in (
            {"limit": 5},
            {"order_by": ("O_ORDERKEY",)},
            {"aggregate": self.COUNT},
        ):
            with pytest.raises(PlanError):
                Query(scan, join=side, **shape)

    def test_shape_comes_in_the_query_or_as_keywords_not_both(self, scan, tables):
        with pytest.raises(PlanError, match="not both"):
            parallel_query(tables[Layout.ROW], Query(scan, limit=3), limit=3)

    def test_plain(self, scan):
        assert Query(scan).plain
        assert not Query(scan, limit=0).plain
        assert not Query(scan, aggregate=self.COUNT).plain


class TestScheduler:
    def test_shaped_query_is_a_typed_error_at_submit(self, scan, tables):
        scheduler = Scheduler()
        with pytest.raises(PlanError, match="plain scans"):
            scheduler.submit(tables[Layout.COLUMN], Query(scan, limit=5))
        assert scheduler.handles() == []

    @pytest.mark.parametrize("share_scans", (True, False))
    def test_plain_query_runs_as_its_scan(self, scan, tables, share_scans):
        table = tables[Layout.COLUMN]
        scheduler = Scheduler(share_scans=share_scans)
        handle = scheduler.submit(table, Query(scan))
        assert_same(handle.value(), run_scan(table, scan))


#: The operators a result shape is made of.
SHAPE_OPERATORS = {
    "TopN",
    "Limit",
    "SortOperator",
    "HashAggregate",
    "SortAggregate",
    "MergeJoin",
}


def _called(node: ast.Call) -> str | None:
    """The name a call calls: ``f(...)`` and ``x.f(...)`` both give ``f``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _constructions(tree: ast.AST) -> list[tuple[str, int]]:
    """``(operator, line)`` for every call of a shape operator in ``tree``."""
    return [
        (_called(node), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) in SHAPE_OPERATORS
    ]


def test_shape_operators_are_constructed_only_by_the_one_builder():
    """Outside ``engine/operators/`` only ``engine/plan.py`` and the
    parent-side merge (``parallel._merge_plan``, a different tree) may
    construct a shape operator — the harnesses, the workers, the
    experiments and the facade all go through ``build_plan``."""
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    builder_constructs = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith("engine/operators/"):
            continue
        tree = ast.parse(path.read_text())
        if relative == "engine/plan.py":
            builder_constructs = {name for name, _ in _constructions(tree)}
            continue
        allowed: set[int] = set()
        if relative == "engine/parallel.py":
            (merge_plan,) = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_merge_plan"
            ]
            allowed = {line for _, line in _constructions(merge_plan)}
            assert allowed, "the parent-side merge builds its own tree"
        offenders += [
            f"{relative}:{line} constructs {name}"
            for name, line in _constructions(tree)
            if line not in allowed
        ]
    assert not offenders, offenders
    assert builder_constructs == SHAPE_OPERATORS


def test_the_scheduler_has_one_read_path():
    """Every scheduled plan is a rider from ``ScanShareManager.acquire``:
    ``engine/scheduler.py`` neither imports nor calls ``scan_plan`` or
    ``build_plan`` and never asks whether a plan rides a stream, so a
    second read path can only come back on purpose."""
    planners = {"scan_plan", "build_plan"}
    path = pathlib.Path(repro.__file__).parent / "engine" / "scheduler.py"
    tree = ast.parse(path.read_text())
    offenders, calls = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            offenders += [
                f"{node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name in planners
            ]
        if not isinstance(node, ast.Call):
            continue
        name = _called(node)
        calls.add(name)
        if name in planners:
            offenders.append(f"{node.lineno}: calls {name}")
        if name == "isinstance" and "SharedScanConsumer" in ast.unparse(node.args[1]):
            offenders.append(f"{node.lineno}: asks whether a plan is a SharedScanConsumer")
    assert not offenders, offenders
    assert "acquire" in calls
