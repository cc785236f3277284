"""Parallel execution must be byte-identical to serial — and the oracle.

The full matrix: every scanner architecture (row, PAX, column
pipelined, column fused) x workers {1, 2, 4} x partition counts
{1, 3, 7} (7 does not divide the row count, so splits are uneven), for
plain scans, aggregates (hash and sort-based, every function,
multi-key group-by), multi-key sorted output, LIMIT, and top-N with
duplicate keys.  Each parallel answer is compared against the serial
engine *and* against the pure-Python oracle from the differential
suite, so a bug shared by both engine paths still gets caught.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.operators.limit import Limit, TopN
from repro.engine.operators.sort import SortOperator
from repro.engine.parallel import parallel_query
from repro.engine.plan import ColumnScannerKind, aggregate_plan, scan_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import AggregateFunction, AggregateSpec, ScanQuery
from repro.errors import PlanError
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.oracle import oracle_aggregate, oracle_scan, pyvalue

ROWS = 900  # not divisible by 7: the uneven-partition case is real

ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)

# CI pins the matrix to one worker count (REPRO_TEST_WORKERS=2) so the
# pool size is deterministic on shared runners; locally all three run.
_PINNED = os.environ.get("REPRO_TEST_WORKERS")
WORKER_COUNTS = (int(_PINNED),) if _PINNED else (1, 2, 4)
PARTITION_COUNTS = (1, 3, 7)


@pytest.fixture(scope="module")
def data():
    return generate_orders(ROWS, seed=23)


@pytest.fixture(scope="module")
def tables(data):
    return {
        name: load_table(data, layout)
        for name, layout, _kind in ARCHITECTURES
        if name != "fused"
    } | {"fused": None}  # fused shares the column table


def _table(tables, name):
    return tables["column"] if name == "fused" else tables[name]


@pytest.fixture(scope="module")
def query(data):
    predicate = predicate_for_selectivity(
        "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.35
    )
    return ScanQuery(
        "ORDERS",
        select=("O_ORDERKEY", "O_TOTALPRICE", "O_ORDERSTATUS"),
        predicates=(predicate,),
    )


def assert_results_equal(got, want, label=""):
    assert np.array_equal(got.positions, want.positions), label
    assert set(got.columns) == set(want.columns), label
    for name in want.columns:
        assert got.columns[name].dtype == want.columns[name].dtype, (label, name)
        assert np.array_equal(got.columns[name], want.columns[name]), (label, name)


def assert_matches_oracle(result, expected):
    assert result.positions.tolist() == expected.positions
    got = [
        tuple(pyvalue(v) for v in row)
        for row in zip(*(result.columns[n].tolist() for n in expected.names))
    ] if expected.names else []
    assert got == expected.rows


class TestScanMatrix:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_parallel_equals_serial_and_oracle(
        self, data, tables, query, arch, layout, kind, workers, partitions
    ):
        table = _table(tables, arch)
        serial = run_scan(table, query, column_scanner=kind)
        parallel = parallel_query(
            table, query, workers=workers, partitions=partitions, column_scanner=kind
        )
        assert_results_equal(parallel, serial, (arch, workers, partitions))
        assert_matches_oracle(parallel, oracle_scan(data, query))


class TestEdgeCases:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_empty_table(self, arch, layout, kind):
        from repro.data.generator import GeneratedTable
        from repro.types.datatypes import IntType
        from repro.types.schema import Attribute, TableSchema

        schema = TableSchema(
            name="ORDERS", attributes=(Attribute("O_ORDERKEY", IntType()),)
        )
        data = GeneratedTable(
            schema=schema, columns={"O_ORDERKEY": np.zeros(0, dtype=np.int64)}
        )
        table = load_table(data, layout)
        query = ScanQuery("ORDERS", select=("O_ORDERKEY",))
        serial = run_scan(table, query, column_scanner=kind)
        parallel = parallel_query(
            table, query, workers=2, partitions=3, column_scanner=kind
        )
        assert parallel.num_tuples == 0
        # Output schema survives through the gather of empty partitions.
        assert set(parallel.columns) == set(serial.columns) == {"O_ORDERKEY"}

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_single_row_table_with_empty_partitions(self, arch, layout, kind):
        data = generate_orders(1, seed=2)
        table = load_table(data, layout)
        query = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        serial = run_scan(table, query, column_scanner=kind)
        # 4 partitions over 1 row: three of them are empty.
        parallel = parallel_query(
            table, query, workers=2, partitions=4, column_scanner=kind
        )
        assert_results_equal(parallel, serial, arch)

    def test_more_partitions_than_rows(self, tables, query):
        table = tables["row"]
        serial = run_scan(table, query)
        parallel = parallel_query(table, query, workers=2, partitions=ROWS + 13)
        assert_results_equal(parallel, serial)

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_zero_selectivity(self, data, tables, arch, layout, kind):
        table = _table(tables, arch)
        predicate = predicate_for_selectivity(
            "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.0
        )
        query = ScanQuery(
            "ORDERS", select=("O_ORDERKEY",), predicates=(predicate,)
        )
        serial = run_scan(table, query, column_scanner=kind)
        parallel = parallel_query(
            table, query, workers=2, partitions=3, column_scanner=kind
        )
        assert parallel.num_tuples == serial.num_tuples == 0
        assert set(parallel.columns) == set(serial.columns)


class TestLimit:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("count", (0, 1, 37, ROWS + 5))
    def test_limit_spans_partition_boundaries(
        self, tables, query, arch, layout, kind, count
    ):
        table = _table(tables, arch)
        context = ExecutionContext()
        serial = execute_plan(
            Limit(context, scan_plan(context, table, query, kind), count)
        )
        parallel = parallel_query(
            table, query, workers=2, partitions=3, column_scanner=kind, limit=count
        )
        assert_results_equal(parallel, serial, (arch, count))


class TestSortedOutput:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_multi_key_sort_merges_identically(
        self, tables, query, arch, layout, kind, partitions
    ):
        # O_ORDERSTATUS has few distinct values: plenty of ties whose
        # order must survive the k-way merge.
        keys = ("O_ORDERSTATUS", "O_TOTALPRICE")
        table = _table(tables, arch)
        context = ExecutionContext()
        plan = scan_plan(context, table, query, kind)
        for key in reversed(keys):
            plan = SortOperator(context, plan, key=key)
        serial = execute_plan(plan)
        parallel = parallel_query(
            table,
            query,
            workers=2,
            partitions=partitions,
            column_scanner=kind,
            order_by=keys,
        )
        assert_results_equal(parallel, serial, (arch, partitions))

    def test_sorted_with_limit(self, tables, query):
        table = tables["column"]
        context = ExecutionContext()
        plan = SortOperator(
            context, scan_plan(context, table, query, ColumnScannerKind.PIPELINED),
            key="O_TOTALPRICE",
        )
        serial = execute_plan(Limit(context, plan, 19))
        parallel = parallel_query(
            table, query, workers=2, partitions=3,
            order_by=("O_TOTALPRICE",), limit=19,
        )
        assert_results_equal(parallel, serial)


class TestTopN:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("descending", (False, True))
    def test_topn_tie_breaking_matches_serial(
        self, tables, query, arch, layout, kind, descending
    ):
        # The key is the low-cardinality status column, so the top-17
        # is decided almost entirely by tie-breaking on row order.
        table = _table(tables, arch)
        context = ExecutionContext()
        serial = execute_plan(
            TopN(
                context,
                scan_plan(context, table, query, kind),
                key="O_ORDERSTATUS",
                count=17,
                descending=descending,
            )
        )
        parallel = parallel_query(
            table,
            query,
            workers=2,
            partitions=4,
            column_scanner=kind,
            topn=("O_ORDERSTATUS", 17, descending),
        )
        assert_results_equal(parallel, serial, (arch, descending))


class TestAggregates:
    FUNCTIONS = (
        (AggregateFunction.COUNT, None),
        (AggregateFunction.SUM, "O_TOTALPRICE"),
        (AggregateFunction.MIN, "O_TOTALPRICE"),
        (AggregateFunction.MAX, "O_TOTALPRICE"),
        (AggregateFunction.AVG, "O_TOTALPRICE"),
    )

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("function,argument", FUNCTIONS)
    @pytest.mark.parametrize("partitions", PARTITION_COUNTS)
    def test_grouped_aggregate_matrix(
        self, data, tables, query, arch, layout, kind, function, argument, partitions
    ):
        spec = AggregateSpec(("O_ORDERSTATUS",), function, argument)
        table = _table(tables, arch)
        context = ExecutionContext()
        serial = execute_plan(
            aggregate_plan(context, table, query, spec, column_scanner=kind)
        )
        parallel = parallel_query(
            table,
            query,
            workers=2,
            partitions=partitions,
            column_scanner=kind,
            aggregate=spec,
        )
        assert_results_equal(parallel, serial, (arch, function, partitions))
        # And against the oracle (sorted multisets — group order is an
        # engine implementation detail the oracle does not model).
        expected = oracle_aggregate(data, query, spec)
        got = sorted(
            tuple(pyvalue(v) for v in row)
            for row in zip(*(parallel.columns[n].tolist() for n in expected.names))
        )
        want = sorted(expected.rows)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[:-1] == w[:-1]
            assert g[-1] == pytest.approx(w[-1])

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    @pytest.mark.parametrize("sort_based", [False, True], ids=["hash", "sort"])
    def test_avg_scans_each_partition_once(self, tables, query, arch, layout, kind, sort_based):
        """AVG's partials (SUM and COUNT) aggregate one scan — and one
        sort — of each partition: it reads and sorts what SUM does."""
        table = _table(tables, arch)
        charged = {}
        for function in (AggregateFunction.SUM, AggregateFunction.AVG):
            spec = AggregateSpec(("O_ORDERSTATUS",), function, "O_TOTALPRICE")
            events = parallel_query(
                table,
                query,
                workers=2,
                partitions=3,
                column_scanner=kind,
                aggregate=spec,
                sort_based=sort_based,
            ).events
            charged[function] = (events.pages_touched, events.values_examined, events.bytes_copied)
        assert charged[AggregateFunction.AVG] == charged[AggregateFunction.SUM]
        assert charged[AggregateFunction.SUM][0] > 0

    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_multi_key_group_by(self, tables, arch, layout, kind):
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERSTATUS", "O_ORDERPRIORITY", "O_TOTALPRICE"),
        )
        spec = AggregateSpec(
            ("O_ORDERSTATUS", "O_ORDERPRIORITY"),
            AggregateFunction.SUM,
            "O_TOTALPRICE",
        )
        table = _table(tables, arch)
        context = ExecutionContext()
        serial = execute_plan(
            aggregate_plan(context, table, query, spec, column_scanner=kind)
        )
        parallel = parallel_query(
            table, query, workers=2, partitions=3, column_scanner=kind, aggregate=spec
        )
        assert_results_equal(parallel, serial, arch)

    def test_sort_based_aggregate(self, tables, query):
        spec = AggregateSpec(
            ("O_ORDERSTATUS",), AggregateFunction.AVG, "O_TOTALPRICE"
        )
        table = tables["row"]
        context = ExecutionContext()
        serial = execute_plan(
            aggregate_plan(context, table, query, spec, sort_based=True)
        )
        parallel = parallel_query(
            table, query, workers=2, partitions=3, aggregate=spec, sort_based=True
        )
        assert_results_equal(parallel, serial)

    def test_ungrouped_aggregate(self, tables, query):
        spec = AggregateSpec((), AggregateFunction.SUM, "O_TOTALPRICE")
        table = tables["row"]
        context = ExecutionContext()
        serial = execute_plan(aggregate_plan(context, table, query, spec))
        parallel = parallel_query(
            table, query, workers=2, partitions=7, aggregate=spec
        )
        assert_results_equal(parallel, serial)


class TestApiConstraints:
    def test_conflicting_shapes_rejected(self, tables, query):
        table = tables["row"]
        spec = AggregateSpec((), AggregateFunction.COUNT, None)
        with pytest.raises(PlanError):
            parallel_query(table, query, aggregate=spec, order_by=("O_ORDERKEY",))
        with pytest.raises(PlanError):
            parallel_query(table, query, aggregate=spec, topn=("O_ORDERKEY", 3, False))
        with pytest.raises(PlanError):
            parallel_query(
                table, query, order_by=("O_ORDERKEY",), topn=("O_ORDERKEY", 3, False)
            )
        with pytest.raises(PlanError):
            parallel_query(table, query, aggregate=spec, limit=5)
        with pytest.raises(PlanError):
            parallel_query(table, query, workers=0)

    def test_database_facade_routes_workers(self, data):
        from repro.database import Database

        db = Database()
        db.create_table(data)
        serial = db.query("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        parallel = db.query(
            "ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"), workers=2, partitions=3
        )
        assert_results_equal(parallel, serial)

    def test_info_reports_mode(self, tables, query):
        info = {}
        parallel_query(tables["row"], query, workers=2, partitions=3, info=info)
        assert info["mode"] == "parallel"
        assert info["partitions"] == 3
        info = {}
        parallel_query(tables["row"], query, workers=1, partitions=3, info=info)
        assert info["mode"] == "inline"


class TestMergeStability:
    """MergeSortedRuns must be stable on duplicate keys — regression.

    The merge used to tie-break by run index, which is only correct
    when runs arrive in partition order; a shared-scan or out-of-order
    delivery would silently reorder equal keys.  Ties now break by
    global position (Record ID), so the merged order is a property of
    the data alone.
    """

    @staticmethod
    def _run(positions, keys, payload):
        from repro.engine.blocks import Block

        return Block(
            columns={
                "K": np.asarray(keys, dtype=np.int64),
                "V": np.asarray(payload, dtype=np.int64),
            },
            positions=np.asarray(positions, dtype=np.int64),
        )

    def _merge(self, runs):
        from repro.engine.operators.gather import MergeSortedRuns

        op = MergeSortedRuns(ExecutionContext(), runs, keys=("K",))
        blocks = op.drain()
        from repro.engine.blocks import concat_blocks

        return concat_blocks(blocks)

    def test_duplicate_keys_come_out_in_record_id_order(self):
        # Two runs, all keys equal: output must be position order.
        a = self._run([0, 2, 4], [7, 7, 7], [10, 12, 14])
        b = self._run([1, 3, 5], [7, 7, 7], [11, 13, 15])
        merged = self._merge([a, b])
        assert merged.positions.tolist() == [0, 1, 2, 3, 4, 5]
        assert merged.column("V").tolist() == [10, 11, 12, 13, 14, 15]

    def test_order_independent_of_run_arrival(self):
        # Delivering the runs in the opposite order must not change
        # anything — the old run-index tie-break failed exactly here.
        a = self._run([0, 2, 4], [3, 7, 7], [10, 12, 14])
        b = self._run([1, 3, 5], [3, 3, 7], [11, 13, 15])
        forward = self._merge([a, b])
        backward = self._merge([b, a])
        assert forward.positions.tolist() == backward.positions.tolist()
        assert forward.column("V").tolist() == backward.column("V").tolist()
        # And both equal the stable sort of the concatenation.
        assert forward.positions.tolist() == [0, 1, 3, 2, 4, 5]

    @pytest.mark.parametrize("seed", range(6))
    def test_the_merge_is_a_heap_merge_of_the_runs(self, seed):
        """The one stable sort by (keys..., position) gives what a k-way
        heap merge of the runs gives: random runs, each sorted on an int
        and a fixed-text key, over duplicate-heavy keys and shuffled
        delivery."""
        import heapq

        from repro.engine.blocks import Block, concat_blocks
        from repro.engine.operators.gather import MergeSortedRuns

        rng = np.random.default_rng(seed)
        rows = 60
        keys = {
            "A": rng.integers(-3, 4, rows),
            "T": rng.choice(np.array([b"", b"a", b"ab", b"b\x00c", b"zz"], dtype="S4"), rows),
        }
        positions = rng.permutation(rows * 3)[:rows]
        cuts = np.sort(rng.choice(np.arange(1, rows), 3, replace=False))
        runs = []
        for part in np.split(np.arange(rows), cuts):
            order = part[np.lexsort((positions[part], keys["T"][part], keys["A"][part]))]
            runs.append(
                Block(
                    columns={name: values[order] for name, values in keys.items()},
                    positions=positions[order],
                )
            )
        runs = [runs[i] for i in rng.permutation(len(runs))]
        merged = concat_blocks(
            MergeSortedRuns(ExecutionContext(), runs, keys=("A", "T")).drain()
        )
        entries = [
            list(zip(run.column("A").tolist(), run.column("T").tolist(), run.positions.tolist()))
            for run in runs
        ]
        expected = [position for _a, _t, position in heapq.merge(*entries)]
        assert merged.positions.tolist() == expected

    def test_end_to_end_low_cardinality_order_by(self, tables, query):
        # O_SHIPPRIORITY has very few distinct values: the parallel
        # order-by is all ties, so stability is the whole answer.
        table = tables["column"]
        scan = ScanQuery(
            "ORDERS", select=("O_ORDERKEY", "O_SHIPPRIORITY"), predicates=()
        )
        context = ExecutionContext()
        plan = SortOperator(
            context,
            scan_plan(context, table, scan, ColumnScannerKind.PIPELINED),
            key="O_SHIPPRIORITY",
        )
        serial = execute_plan(plan)
        for partitions in PARTITION_COUNTS:
            parallel = parallel_query(
                table,
                scan,
                workers=2,
                partitions=partitions,
                order_by=("O_SHIPPRIORITY",),
            )
            assert_results_equal(parallel, serial, partitions)
