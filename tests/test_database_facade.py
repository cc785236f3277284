"""Database facade and Limit/TopN operator tests."""

import inspect

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.operators.limit import Limit, TopN
from repro.engine.plan import scan_plan
from repro.engine.query import ScanQuery
from repro.errors import PlanError, StorageError
from repro.storage.layout import Layout


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table(generate_orders(2_000, seed=17))
    return database


class TestDatabase:
    def test_create_and_list(self, db):
        assert db.tables() == ["ORDERS"]
        assert db.table("ORDERS", Layout.ROW).layout is Layout.ROW
        assert db.table("ORDERS", Layout.COLUMN).layout is Layout.COLUMN

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.create_table(generate_orders(10, seed=17))

    def test_unknown_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.table("NOPE")

    def test_query_matches_direct_scan(self, db):
        from repro.engine.executor import run_scan

        pred = db.predicate("ORDERS", "O_ORDERDATE", 0.25)
        select = ("O_ORDERDATE", "O_CUSTKEY")
        via_db = db.query("ORDERS", select=select, predicates=(pred,))
        direct = run_scan(
            db.table("ORDERS", Layout.ROW),
            ScanQuery("ORDERS", select=select, predicates=(pred,)),
        )
        np.testing.assert_array_equal(via_db.positions, direct.positions)

    def test_view_routing(self, db):
        db.create_view(
            "ORDERS", ("O_ORDERKEY", "O_TOTALPRICE"), name="PRICES"
        )
        result = db.query("ORDERS", select=("O_TOTALPRICE",))
        assert result.num_tuples == 2_000
        # Bypassing views still works.
        direct = db.query("ORDERS", select=("O_TOTALPRICE",), use_views=False)
        np.testing.assert_array_equal(
            np.sort(result.column("O_TOTALPRICE")),
            np.sort(direct.column("O_TOTALPRICE")),
        )

    def test_compressed_table(self):
        database = Database()
        database.create_table(generate_orders(1_000, seed=3), compress=True)
        table = database.table("ORDERS", Layout.COLUMN)
        assert table.schema.packed_tuple_bits < 32 * 8
        result = database.query("ORDERS", select=("O_CUSTKEY",), use_views=False)
        assert result.num_tuples == 1_000

    def test_estimate_and_compare(self, db):
        pred = db.predicate("ORDERS", "O_ORDERDATE", 0.10)
        estimates = db.compare_layouts(
            "ORDERS", select=("O_ORDERDATE", "O_CUSTKEY"), predicates=(pred,)
        )
        assert set(estimates) == {Layout.ROW, Layout.COLUMN}
        assert estimates[Layout.COLUMN].elapsed < estimates[Layout.ROW].elapsed

    def test_estimate_unmaterialized_layout_rejected(self, db):
        with pytest.raises(PlanError):
            db.estimate("ORDERS", select=("O_CUSTKEY",), layout=Layout.PAX)

    def test_no_layouts_rejected(self):
        with pytest.raises(StorageError):
            Database(layouts=())


class TestLimitTopN:
    def _scan(self, db, select=("O_TOTALPRICE", "O_CUSTKEY")):
        context = ExecutionContext()
        plan = scan_plan(
            context,
            db.table("ORDERS", Layout.COLUMN),
            ScanQuery("ORDERS", select=select),
        )
        return context, plan

    def test_limit_truncates(self, db):
        context, scan = self._scan(db)
        result = execute_plan(Limit(context, scan, 250))
        assert result.num_tuples == 250

    def test_limit_zero(self, db):
        context, scan = self._scan(db)
        result = execute_plan(Limit(context, scan, 0))
        assert result.num_tuples == 0

    def test_limit_larger_than_input(self, db):
        context, scan = self._scan(db)
        result = execute_plan(Limit(context, scan, 10**6))
        assert result.num_tuples == 2_000

    def test_negative_limit_rejected(self, db):
        context, scan = self._scan(db)
        with pytest.raises(PlanError):
            Limit(context, scan, -1)

    def test_topn_matches_full_sort(self, db):
        context, scan = self._scan(db)
        result = execute_plan(TopN(context, scan, key="O_TOTALPRICE", count=25))
        prices = db.table("ORDERS", Layout.ROW).read_column("O_TOTALPRICE")
        expected = np.sort(prices)[:25]
        np.testing.assert_array_equal(result.column("O_TOTALPRICE"), expected)

    def test_topn_descending(self, db):
        context, scan = self._scan(db)
        result = execute_plan(
            TopN(context, scan, key="O_TOTALPRICE", count=10, descending=True)
        )
        prices = db.table("ORDERS", Layout.ROW).read_column("O_TOTALPRICE")
        expected = np.sort(prices)[::-1][:10]
        np.testing.assert_array_equal(result.column("O_TOTALPRICE"), expected)

    def test_topn_cheaper_than_sort(self, db):
        from repro.engine.operators.sort import SortOperator

        context_top, scan_top = self._scan(db)
        execute_plan(TopN(context_top, scan_top, key="O_TOTALPRICE", count=10))
        context_sort, scan_sort = self._scan(db)
        execute_plan(SortOperator(context_sort, scan_sort, key="O_TOTALPRICE"))
        assert (
            context_top.events.sort_comparisons
            < context_sort.events.sort_comparisons
        )

    def test_topn_missing_key_rejected(self, db):
        context, scan = self._scan(db, select=("O_CUSTKEY",))
        with pytest.raises(PlanError):
            execute_plan(TopN(context, scan, key="O_TOTALPRICE", count=5))

    def test_topn_positive_count_required(self, db):
        context, scan = self._scan(db)
        with pytest.raises(PlanError):
            TopN(context, scan, key="O_TOTALPRICE", count=0)


SELECT = ("O_ORDERKEY", "O_TOTALPRICE")


#: Every keyword ``Database.query`` takes, read off its signature so a
#: new one cannot be forgotten below.
QUERY_KEYWORDS = sorted(
    set(inspect.signature(Database.query).parameters) - {"self", "table", "select"}
)


def _query_options(db):
    """One non-default value for every keyword ``Database.query`` takes."""
    from repro.engine.governance import CancellationToken, SupervisionPolicy
    from repro.engine.plan import ColumnScannerKind

    return {
        "predicates": (db.predicate("ORDERS", "O_TOTALPRICE", 0.3),),
        "layout": Layout.COLUMN,
        "use_views": False,
        "context": ExecutionContext(),
        "salvage": True,
        "workers": 2,
        "partitions": 3,
        "timeout": 30.0,
        "memory_budget": 64_000_000,
        "cancellation": CancellationToken(),
        "policy": SupervisionPolicy(),
        "column_scanner": ColumnScannerKind.FUSED,
    }


class TestOneSignature:
    """``profile``/``explain`` take ``query``'s options by forwarding them,
    and nothing the caller passes is dropped or left behind."""

    @pytest.mark.parametrize("option", QUERY_KEYWORDS)
    def test_profile_and_explain_accept_what_query_accepts(self, db, option):
        options = {option: _query_options(db)[option]}
        want = db.query("ORDERS", select=SELECT, **options)
        profile = db.profile("ORDERS", select=SELECT, **options)
        np.testing.assert_array_equal(profile.result.positions, want.positions)
        for name in SELECT:
            np.testing.assert_array_equal(
                profile.result.column(name), want.column(name)
            )
        assert (profile.governance is not None) == (
            option in ("timeout", "memory_budget", "cancellation")
        )
        assert "Scanner" in db.explain("ORDERS", select=SELECT, **options)

    def test_explain_renders_the_requested_column_scanner(self, db):
        from repro.engine.plan import ColumnScannerKind

        text = db.explain(
            "ORDERS",
            select=SELECT,
            layout=Layout.COLUMN,
            column_scanner=ColumnScannerKind.FUSED,
        )
        assert "FusedColumnScanner" in text

    def test_scanner_kind_reaches_the_parallel_workers(self, db, monkeypatch):
        from repro.engine.parallel import parallel_query
        from repro.engine.plan import ColumnScannerKind

        # The facade clamps workers to the core count; pin it so the
        # query cannot go serial on a one-core runner.
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        scan = ScanQuery("ORDERS", select=SELECT)
        events = {}
        for kind in ColumnScannerKind:
            direct, facade = ExecutionContext(), ExecutionContext()
            parallel_query(
                db.table("ORDERS", Layout.COLUMN),
                scan,
                workers=2,
                context=direct,
                column_scanner=kind,
            )
            db.query(
                "ORDERS",
                select=SELECT,
                layout=Layout.COLUMN,
                workers=2,
                context=facade,
                column_scanner=kind,
            )
            assert facade.events.as_dict() == direct.events.as_dict(), kind
            events[kind] = facade.events
        assert events[ColumnScannerKind.FUSED].tuples_examined > 0
        assert events[ColumnScannerKind.PIPELINED].tuples_examined == 0

    def test_governance_arguments_leave_the_callers_context_alone(self, db):
        from repro.errors import QueryTimeout

        context = ExecutionContext()
        first = db.query("ORDERS", select=SELECT, context=context, timeout=5.0)
        assert context.governance is None
        after_one = context.events.pages_touched
        assert after_one > 0
        # A second governed call on the same context works, and events
        # keep accumulating on it.
        second = db.query("ORDERS", select=SELECT, context=context, timeout=5.0)
        assert second.num_tuples == first.num_tuples
        assert context.events.pages_touched == 2 * after_one
        with pytest.raises(QueryTimeout):
            db.query("ORDERS", select=SELECT, context=context, timeout=0.0)
        assert context.governance is None
        db.query("ORDERS", select=SELECT, context=context, memory_budget=64_000_000)
