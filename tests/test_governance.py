"""Query lifecycle governance: deadlines, cancellation, budgets, supervision.

Covers the contract end to end: cooperative cancellation and deadlines
landing mid-scan in all four scanner architectures (serial and through
the parallel executor), block-granular memory budgets with the
reduced-width retry, the supervision ladder's circuit breaker, the
facade's worker clamp, and partitions abandoned on KeyboardInterrupt.  The
governing invariant throughout: a governed query either completes with
the full answer or raises a typed GovernanceError — partial results
are never observable.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.data.generator import GeneratedTable
from repro.database import Database
from repro.engine.blocks import Block
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    GovernedAccumulator,
    QueryContext,
    SupervisionPolicy,
    block_nbytes,
    narrow_block,
)
from repro.engine.operators.sort import SortOperator
from repro.engine.plan import ColumnScannerKind, aggregate_plan, scan_plan
from repro.engine.query import AggregateFunction, AggregateSpec, ScanQuery
from repro.errors import (
    GovernanceError,
    MemoryBudgetExceeded,
    PlanError,
    QueryCancelled,
    QueryTimeout,
)
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema

#: The four scanner architectures the engine ships.
ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)
ARCH_IDS = [name for name, _, _ in ARCHITECTURES]

QUERY = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_CUSTKEY"))


@pytest.fixture(scope="module")
def arch_tables(orders_data):
    return {
        layout: load_table(orders_data, layout)
        for layout in (Layout.ROW, Layout.PAX, Layout.COLUMN)
    }


def _governed(timeout=30.0, **kwargs) -> ExecutionContext:
    context = ExecutionContext()
    context.governance = QueryContext.start(timeout=timeout, **kwargs)
    return context


# --- QueryContext unit behaviour ------------------------------------------------


class TestQueryContext:
    def test_negative_timeout_rejected(self):
        with pytest.raises(GovernanceError):
            QueryContext.start(timeout=-1.0)

    def test_non_positive_budget_rejected(self):
        with pytest.raises(GovernanceError):
            QueryContext.start(memory_budget=0)

    def test_expired_deadline_raises_typed_timeout(self):
        governance = QueryContext.start(timeout=0.0)
        time.sleep(0.001)
        assert governance.remaining() < 0
        with pytest.raises(QueryTimeout, match="deadline"):
            governance.check("unit test")
        assert any("deadline exceeded" in note for note in governance.outcomes)

    def test_cancel_keeps_first_reason(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"
        governance = QueryContext.start(token=token)
        with pytest.raises(QueryCancelled, match="first"):
            governance.check()

    def test_reserve_release_accounting(self):
        governance = QueryContext.start(memory_budget=100)
        assert governance.try_reserve(60)
        assert governance.try_reserve(40)
        assert not governance.try_reserve(1)
        governance.release(50)
        assert governance.memory_used == 50
        assert governance.memory_peak == 100
        with pytest.raises(GovernanceError):
            governance.try_reserve(-1)

    def test_snapshot_fields(self):
        governance = QueryContext.start(timeout=5.0, memory_budget=1_000)
        governance.note("something happened")
        snapshot = governance.snapshot()
        assert snapshot["memory_budget"] == 1_000
        assert snapshot["deadline_remaining_s"] <= 5.0
        assert snapshot["outcomes"] == ["something happened"]
        assert snapshot["cancelled"] is False

    def test_on_tick_hook_fires_per_check(self):
        governance = QueryContext.start()
        seen = []
        governance.on_tick = lambda ctx: seen.append(ctx.ticks)
        governance.check()
        governance.check()
        assert seen == [1, 2]


# --- narrowing and the governed accumulator -------------------------------------


def _block(n: int, maxval: int = 100) -> Block:
    values = (np.arange(n) % maxval).astype(np.int64)
    return Block(columns={"v": values}, positions=np.arange(n, dtype=np.int64))


class TestGovernedAccumulator:
    def test_narrow_block_preserves_values(self):
        block = _block(500)
        narrow = narrow_block(block)
        assert narrow.columns["v"].dtype == np.int16
        assert narrow.positions.dtype == np.int16
        assert block_nbytes(narrow) * 4 == block_nbytes(block)
        np.testing.assert_array_equal(
            narrow.columns["v"].astype(np.int64), block.columns["v"]
        )

    def test_passthrough_without_budget(self):
        accumulator = GovernedAccumulator(None, "test")
        accumulator.add(_block(10))
        accumulator.add(_block(0))  # empty blocks are skipped
        merged = accumulator.finish()
        assert len(merged) == 10

    def test_narrow_retry_fits_and_widens_back(self):
        governance = QueryContext.start(memory_budget=block_nbytes(_block(500)))
        accumulator = GovernedAccumulator(governance, "test")
        accumulator.add(_block(400))
        accumulator.add(_block(400))  # would not fit at full width
        merged = accumulator.finish()
        assert governance.narrow_retries == 1
        assert len(merged) == 800
        assert merged.columns["v"].dtype == np.int64  # widened back
        assert merged.positions.dtype == np.int64
        assert governance.memory_used == 0  # reservation released

    def test_abort_when_narrowing_is_not_enough(self):
        governance = QueryContext.start(memory_budget=64)
        accumulator = GovernedAccumulator(governance, "test")
        with pytest.raises(MemoryBudgetExceeded, match="reduced-width"):
            for _ in range(100):
                accumulator.add(_block(100))
        assert governance.memory_used == 0  # no leaked reservation
        assert any("memory budget exceeded" in n for n in governance.outcomes)


# --- budgets through the materializing operators --------------------------------


def _int_table(n: int = 2_000, layout: Layout = Layout.COLUMN):
    schema = TableSchema("G", attributes=(Attribute("g_v", IntType()),))
    data = GeneratedTable(
        schema=schema, columns={"g_v": (np.arange(n, dtype=np.int64) % 1_000)}
    )
    return load_table(data, layout)


class TestOperatorBudgets:
    def test_sort_narrow_retry_preserves_answer(self):
        table = _int_table()
        # 2,000 int64 rows + positions = 32 KB; narrowed to int16 = 8 KB.
        context = _governed(memory_budget=16_384)
        scan = scan_plan(
            context, table, ScanQuery("G", select=("g_v",)),
            ColumnScannerKind.PIPELINED,
        )
        result = execute_plan(SortOperator(context, scan, key="g_v"))
        baseline = execute_plan(
            SortOperator(
                (plain := ExecutionContext()),
                scan_plan(
                    plain, table, ScanQuery("G", select=("g_v",)),
                    ColumnScannerKind.PIPELINED,
                ),
                key="g_v",
            )
        )
        governance = context.governance
        assert governance.narrow_retries == 1
        assert result.columns["g_v"].dtype == np.int64
        np.testing.assert_array_equal(result.columns["g_v"], baseline.columns["g_v"])
        assert governance.memory_used == 0
        assert governance.memory_peak > 0

    def test_sort_budget_abort_is_typed(self):
        table = _int_table()
        context = _governed(memory_budget=4_096)  # below even the narrow set
        scan = scan_plan(
            context, table, ScanQuery("G", select=("g_v",)),
            ColumnScannerKind.PIPELINED,
        )
        with pytest.raises(MemoryBudgetExceeded):
            execute_plan(SortOperator(context, scan, key="g_v"))

    @pytest.mark.parametrize("sort_based", [False, True], ids=["hash", "sort"])
    def test_aggregate_budget_abort_is_typed(self, sort_based):
        table = _int_table()
        context = _governed(memory_budget=2_048)
        plan = aggregate_plan(
            context,
            table,
            ScanQuery("G", select=("g_v",)),
            AggregateSpec(
                group_by=("g_v",), function=AggregateFunction.COUNT, argument=None
            ),
            sort_based=sort_based,
        )
        with pytest.raises(MemoryBudgetExceeded):
            execute_plan(plan)


# --- cancellation and deadlines mid-scan, all four architectures ----------------


@pytest.mark.parametrize("name,layout,scanner", ARCHITECTURES, ids=ARCH_IDS)
class TestMidScanGovernance:
    def test_cancel_lands_mid_scan_serial(self, arch_tables, name, layout, scanner):
        context = _governed()
        governance = context.governance

        def hook(ctx: QueryContext) -> None:
            if ctx.ticks >= 4:
                ctx.token.cancel("mid-scan test cancel")

        governance.on_tick = hook
        plan = scan_plan(context, arch_tables[layout], QUERY, scanner)
        with pytest.raises(QueryCancelled, match="mid-scan test cancel"):
            execute_plan(plan)
        # The cancel landed after real work started, not at the gate.
        assert governance.ticks >= 4
        # Partial results are never observable: the raise is the only
        # outcome, and engine state is clean for the next query.
        full = run_scan(arch_tables[layout], QUERY)
        assert full.num_tuples == arch_tables[layout].num_rows

    def test_deadline_fires_serial(self, arch_tables, name, layout, scanner):
        context = _governed(timeout=0.0)
        plan = scan_plan(context, arch_tables[layout], QUERY, scanner)
        with pytest.raises(QueryTimeout):
            execute_plan(plan)

    def test_cancel_parallel_workers(self, arch_tables, name, layout, scanner):
        from repro.engine.parallel import parallel_query

        token = CancellationToken()
        token.cancel("session torn down")
        context = _governed(token=token)
        with pytest.raises(QueryCancelled, match="session torn down"):
            parallel_query(
                arch_tables[layout],
                QUERY,
                workers=2,
                partitions=2,
                context=context,
                column_scanner=scanner,
            )

    def test_deadline_parallel_workers(self, arch_tables, name, layout, scanner):
        from repro.engine.parallel import parallel_query

        context = _governed(timeout=0.0)
        with pytest.raises(QueryTimeout):
            parallel_query(
                arch_tables[layout],
                QUERY,
                workers=2,
                partitions=2,
                context=context,
                column_scanner=scanner,
            )


# --- supervision ladder and circuit breaker -------------------------------------


class TestCircuitBreaker:
    def test_threshold_validation(self):
        with pytest.raises(GovernanceError):
            CircuitBreaker(threshold=0)

    def test_opens_exactly_at_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        key = ("T", 0, (0, 10))
        assert not breaker.record_failure(key)
        assert not breaker.is_open(key)
        assert breaker.record_failure(key)  # the trip
        assert breaker.is_open(key)
        assert not breaker.record_failure(key)  # already open: no re-trip
        assert breaker.open_keys() == [key]
        assert breaker.trips == 1

    def test_success_closes(self):
        breaker = CircuitBreaker(threshold=1)
        key = ("T", 1, (10, 20))
        breaker.record_failure(key)
        assert breaker.is_open(key)
        breaker.record_success(key)
        assert not breaker.is_open(key)


class TestSupervisionLadder:
    def test_repeated_kills_trip_breaker_and_route_to_salvage(self, arch_tables):
        from repro.engine.parallel import parallel_query

        table = arch_tables[Layout.COLUMN]
        breaker = CircuitBreaker()
        policy = SupervisionPolicy(stall_timeout=0.3, poll_interval=0.02)
        baseline = run_scan(table, QUERY)
        for _ in range(2):
            info: dict = {}
            result = parallel_query(
                table,
                QUERY,
                workers=2,
                partitions=3,
                context=_governed(),
                policy=policy,
                breaker=breaker,
                inject_crash=2,
                info=info,
            )
            assert result.num_tuples == baseline.num_tuples
            assert info["mode"] == "parallel-degraded"
        assert breaker.open_keys(), "two crashes of one partition must open the breaker"
        # Third query, no injection: the open partition is routed to a
        # salvage-mode serial scan instead of running it on the pool again.
        info = {}
        result = parallel_query(
            table,
            QUERY,
            workers=2,
            partitions=3,
            context=_governed(),
            policy=policy,
            breaker=breaker,
            info=info,
        )
        assert result.num_tuples == baseline.num_tuples
        assert any("salvage" in note for note in info["governance"])


# --- Database facade ------------------------------------------------------------


class TestFacadeGovernance:
    @pytest.fixture(scope="class")
    def db(self, orders_data):
        database = Database(layouts=(Layout.ROW, Layout.COLUMN))
        database.create_table(orders_data)
        return database

    def test_timeout_zero_raises(self, db):
        with pytest.raises(QueryTimeout):
            db.query("ORDERS", select=("O_ORDERKEY",), timeout=0.0)

    def test_cancelled_token_raises(self, db):
        token = CancellationToken()
        token.cancel("user hit ^C")
        with pytest.raises(QueryCancelled, match="user hit"):
            db.query("ORDERS", select=("O_ORDERKEY",), cancellation=token)

    def test_governed_success_returns_full_result(self, db):
        result = db.query(
            "ORDERS",
            select=("O_ORDERKEY",),
            timeout=30.0,
            memory_budget=64_000_000,
        )
        plain = db.query("ORDERS", select=("O_ORDERKEY",))
        assert result.num_tuples == plain.num_tuples

    def test_governed_context_plus_args_rejected(self, db):
        context = ExecutionContext()
        context.governance = QueryContext.start(timeout=5.0)
        with pytest.raises(PlanError, match="not both"):
            db.query(
                "ORDERS", select=("O_ORDERKEY",), context=context, timeout=1.0
            )

    def test_explain_carries_governance_footer(self, db):
        text = db.explain("ORDERS", select=("O_ORDERKEY",), timeout=30.0)
        assert "Governance:" in text
        assert "memory peak" in text
        assert "deadline slack" in text

    def test_profile_snapshot(self, db):
        profile = db.profile(
            "ORDERS", select=("O_ORDERKEY",), timeout=30.0, memory_budget=1_000_000
        )
        assert profile.governance is not None
        assert profile.governance["memory_budget"] == 1_000_000
        assert profile.governance["ticks"] > 0


class TestWorkerClamp:
    """``Database.query(workers=N)`` clamps N to ``os.cpu_count()``."""

    def _spy(self, monkeypatch):
        import repro.engine.parallel as parallel_mod

        captured: dict = {}
        real = parallel_mod.parallel_query

        def spy(table, scan, *, workers, **kwargs):
            captured["workers"] = workers
            return real(table, scan, workers=workers, **kwargs)

        monkeypatch.setattr(parallel_mod, "parallel_query", spy)
        return captured

    def test_oversubscription_clamped(self, monkeypatch, orders_data):
        db = Database(layouts=(Layout.COLUMN,))
        db.create_table(orders_data)
        captured = self._spy(monkeypatch)
        monkeypatch.setattr("repro.database.os.cpu_count", lambda: 2)
        result = db.query("ORDERS", select=("O_ORDERKEY",), workers=64)
        assert captured["workers"] == 2
        assert result.num_tuples == len(orders_data.column("O_ORDERKEY"))

    def test_unknown_cpu_count_falls_back_to_serial(self, monkeypatch, orders_data):
        db = Database(layouts=(Layout.COLUMN,))
        db.create_table(orders_data)
        captured = self._spy(monkeypatch)
        monkeypatch.setattr("repro.database.os.cpu_count", lambda: None)
        result = db.query("ORDERS", select=("O_ORDERKEY",), workers=4)
        assert "workers" not in captured  # clamped to 1: serial path
        assert result.num_tuples == len(orders_data.column("O_ORDERKEY"))


# --- KeyboardInterrupt ----------------------------------------------------------


class TestKeyboardInterrupt:
    def test_interrupt_reaps_children_and_pools(self, arch_tables, monkeypatch):
        """Ctrl-C mid-query abandons every partition still running: a
        partition stalled for 30 s stops at its next checkpoint, well
        within 5 s of the interrupt."""
        from repro.engine import parallel

        lock = threading.Lock()
        running = [0]
        execute = parallel._execute_task

        def counted(*args, **kwargs):
            with lock:
                running[0] += 1
            try:
                return execute(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(parallel, "_execute_task", counted)
        table = arch_tables[Layout.COLUMN]
        context = _governed()

        def hook(ctx: QueryContext) -> None:
            # Interrupt only once a partition demonstrably runs, so the
            # assertion below is not vacuous.
            if running[0]:
                raise KeyboardInterrupt

        context.governance.on_tick = hook
        with pytest.raises(KeyboardInterrupt):
            parallel.parallel_query(
                table,
                QUERY,
                workers=2,
                partitions=2,
                context=context,
                # A long stall keeps a partition running until the interrupt.
                inject_stall=(0, 30.0),
            )
        deadline = time.monotonic() + 5.0
        while running[0] and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running[0], "no partition still running after KeyboardInterrupt"
