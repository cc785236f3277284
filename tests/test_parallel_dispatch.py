"""Event-driven dispatch over the persistent worker fleet.

What the fleet promises beyond byte-identity (that is
``test_parallel_equivalence.py``):

* results wake the supervisor — ``poll_interval`` is a ceiling between
  governance checks, never a floor under query latency;
* a dead worker is seen through its process sentinel at once, not by
  waiting out ``stall_timeout``, and the fleet heals itself;
* tables are resident in the workers, and every way a table can change
  under a resident copy (fault wrappers, state scheduled on a wrapper
  later, a merge swap) is served from fresh bytes, never a stale copy;
* ``shutdown_pools`` reaps every child and the next query restarts the
  fleet.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
import weakref

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine import parallel
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.governance import CircuitBreaker, SupervisionPolicy
from repro.engine.parallel import parallel_query, shutdown_pools
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.errors import TransientIOError
from repro.obs import recorder as flight
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table

ROWS = 2_000
SELECT = ("O_ORDERKEY", "O_TOTALPRICE")


@pytest.fixture(scope="module")
def data():
    return generate_orders(ROWS, seed=41)


@pytest.fixture(scope="module")
def query(data):
    predicate = predicate_for_selectivity(
        "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.5
    )
    return ScanQuery("ORDERS", select=SELECT, predicates=(predicate,))


@pytest.fixture(autouse=True)
def recorder_on():
    was = flight.enabled()
    flight.enable()
    yield
    if not was:
        flight.disable()


def _assert_same(result, expected) -> None:
    assert np.array_equal(result.positions, expected.positions)
    for name, column in expected.columns.items():
        assert np.array_equal(result.columns[name], column)


def _fault_set(report):
    return sorted((f.file, f.page, f.rows_lost) for f in report.faults)


def _fleet_children() -> list:
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith(parallel._WORKER_NAME)
    ]


def test_poll_interval_is_a_ceiling_not_a_floor(data, query):
    table = load_table(data, Layout.COLUMN)
    policy = SupervisionPolicy(poll_interval=0.5)
    parallel_query(table, query, workers=2, policy=policy)  # fork the fleet
    info: dict = {}
    started = time.monotonic()
    result = parallel_query(table, query, workers=2, policy=policy, info=info)
    elapsed = time.monotonic() - started
    assert info["mode"] == "parallel"
    assert elapsed < 0.25, f"a finished partition must wake the supervisor ({elapsed:.3f}s)"
    assert info["dispatch_ms"] <= elapsed * 1e3
    _assert_same(result, run_scan(table, query))


def test_dead_worker_is_seen_at_once_and_the_fleet_heals(data, query):
    table = load_table(data, Layout.COLUMN)
    breaker = CircuitBreaker()
    policy = SupervisionPolicy(stall_timeout=30.0)
    expected = run_scan(table, query)
    died_before = len(flight.RECORDER.events("parallel.worker_died"))
    info: dict = {}
    started = time.monotonic()
    result = parallel_query(
        table,
        query,
        workers=2,
        partitions=2,
        policy=policy,
        breaker=breaker,
        inject_kill=1,
        info=info,
    )
    elapsed = time.monotonic() - started
    assert elapsed < 2.0, f"death must not wait for stall_timeout ({elapsed:.2f}s)"
    assert info["mode"] == "parallel-degraded"
    assert "died" in info["fallback_reason"]
    _assert_same(result, expected)
    assert list(breaker.failures.values()) == [1]
    died = flight.RECORDER.events("parallel.worker_died")[died_before:]
    assert len(died) == 1
    assert died[0].detail["partition"] == 1
    assert died[0].detail["exitcode"] == parallel._CHAOS_KILL_EXIT
    assert died[0].detail["pid"] > 0
    # Same fleet, no injection: a fresh worker took the dead one's place.
    info = {}
    result = parallel_query(
        table, query, workers=2, partitions=2, policy=policy, breaker=breaker, info=info
    )
    assert info["mode"] == "parallel"
    _assert_same(result, expected)


class TestResidency:
    def test_second_query_ships_nothing(self, data, query):
        table = load_table(data, Layout.COLUMN)
        parallel_query(table, query, workers=2)  # fleet exists, some other table
        fresh = load_table(data, Layout.COLUMN)
        first: dict = {}
        parallel_query(fresh, query, workers=2, info=first)
        assert first["tables_shipped"] == 2  # one copy per running worker
        second: dict = {}
        result = parallel_query(fresh, query, workers=2, info=second)
        assert second["tables_shipped"] == 0
        assert second["mode"] == "parallel"
        _assert_same(result, run_scan(fresh, query))

    def test_resident_set_is_bounded(self, data, query):
        tables = [
            load_table(data, Layout.ROW)
            for _ in range(parallel._RESIDENT_TABLES + 2)
        ]
        for table in tables:
            parallel_query(table, query, workers=2)
        assert parallel._FLEET
        for worker in parallel._FLEET:
            assert len(worker.resident) <= parallel._RESIDENT_TABLES
        # The evicted first table is simply shipped again.
        info: dict = {}
        result = parallel_query(tables[0], query, workers=2, info=info)
        assert info["tables_shipped"] == 2
        _assert_same(result, run_scan(tables[0], query))

    def test_workers_already_holding_the_table_are_preferred(self, data, query):
        shutdown_pools()
        parallel_query(load_table(data, Layout.COLUMN), query, workers=4)
        table = load_table(data, Layout.COLUMN)
        parallel_query(table, query, workers=2, partitions=2, inject_kill=1)
        # The dead worker's replacement was born holding ``table`` but
        # sits behind two workers that never saw it.
        assert len(parallel._FLEET) == 4
        info: dict = {}
        result = parallel_query(table, query, workers=2, info=info)
        assert (info["mode"], info["tables_shipped"]) == ("parallel", 0)
        _assert_same(result, run_scan(table, query))

    def test_parent_does_not_pin_resident_tables(self, data, query):
        table = load_table(data, Layout.COLUMN)
        parallel_query(table, query, workers=2)
        gone = weakref.ref(table)
        del table
        gc.collect()
        assert gone() is None  # e.g. a version superseded by Database.merge

    def test_failed_send_retires_the_worker(self, data, query):
        """A worker whose pipe breaks on send must leave the fleet: its
        mirror already claims a table it never received."""

        class BrokenSend:
            def __init__(self, conn):
                self._conn = conn

            def send(self, obj):
                raise BrokenPipeError("injected")

            def __getattr__(self, name):
                return getattr(self._conn, name)

        shutdown_pools()
        parallel_query(load_table(data, Layout.COLUMN), query, workers=2)
        victim = parallel._FLEET[0]
        victim.conn = BrokenSend(victim.conn)
        table = load_table(data, Layout.COLUMN)
        info: dict = {}
        result = parallel_query(table, query, workers=2, info=info)
        assert info["mode"] == "parallel-degraded"
        assert "fleet failure" in info["fallback_reason"]
        _assert_same(result, run_scan(table, query))
        assert victim not in parallel._FLEET
        assert not victim.process.is_alive()
        info = {}
        parallel_query(table, query, workers=2, info=info)
        assert info["mode"] == "parallel"

    def test_fault_wrapper_on_a_resident_table_is_not_served_stale(self, data, query):
        table = load_table(data, Layout.ROW)
        parallel_query(table, query, workers=2, partitions=3)  # now resident
        plan = FaultPlan(seed=99)
        plan.schedule_bit_flip(page=1, byte=80, bit=4)
        plan.wrap_table(table)  # same Table object, wrapped files
        serial = run_scan(table, query, salvage=True)
        assert not serial.corruption.is_clean
        result = parallel_query(table, query, workers=2, partitions=3, salvage=True)
        _assert_same(result, serial)
        assert _fault_set(result.corruption) == _fault_set(serial.corruption)

    def test_fault_state_travels_with_every_task(self, data, query):
        table = load_table(data, Layout.ROW)
        plan = FaultPlan(seed=5)
        plan.wrap_table(table)
        info: dict = {}
        parallel_query(table, query, workers=2, info=info)
        assert (info["mode"], info["tables_shipped"]) == ("parallel", 0)
        # Faults scheduled on the *same* plan afterwards must reach the
        # workers: each task carries its own copy of the wrapper state.
        plan.schedule_transient_reads(8)
        for _ in range(2):
            retries = len(flight.RECORDER.events("parallel.retry"))
            with pytest.raises(TransientIOError):
                parallel_query(table, query, workers=2)
            raised = flight.RECORDER.events("parallel.retry")[retries:]
            assert raised and "TransientIOError" in raised[0].detail["reason"]
        # Only the parent's two inline retries (4 attempts each) touched
        # the parent's plan; the workers' counters never come back.
        assert plan.transient_raised == 8
        info = {}
        result = parallel_query(table, query, workers=2, info=info)
        assert info["mode"] == "parallel"
        _assert_same(result, run_scan(table, query))

    def test_merge_swap_is_seen_by_parallel_queries(self, data, monkeypatch):
        monkeypatch.setattr("repro.database.os.cpu_count", lambda: 2)
        db = Database(layouts=(Layout.COLUMN,))
        db.create_table(data)
        before = db.query("ORDERS", select=SELECT, workers=2)
        assert before.num_tuples == ROWS
        rows = [
            tuple(data.columns[a.name][index] for a in data.schema)
            for index in (3, 7, 11)
        ]
        db.insert_many("ORDERS", rows)
        db.merge("ORDERS")
        after = db.query("ORDERS", select=SELECT, workers=2)
        assert after.num_tuples == ROWS + len(rows)
        _assert_same(after, db.query("ORDERS", select=SELECT))


def test_stress_more_workers_than_cores_rotating_tables_and_kills(query):
    """Residency under churn: six *different* tables rotate through a
    4-worker fleet (more than this box has cores, more tables than a
    worker keeps), seven partitions each, a worker killed every fifth
    query.  A worker answering from the wrong or a stale resident copy
    would return another table's rows."""
    datasets = [generate_orders(600, seed=seed) for seed in range(6)]
    tables = [load_table(d, Layout.COLUMN) for d in datasets]
    scan = ScanQuery("ORDERS", select=SELECT)
    expected = [run_scan(table, scan) for table in tables]
    deadline = time.monotonic() + 20.0
    for turn in range(40):
        which = (turn * 5) % len(tables)
        info: dict = {}
        result = parallel_query(
            tables[which],
            scan,
            workers=4,
            partitions=7,
            inject_kill=turn % 7 if turn % 5 == 4 else None,
            info=info,
        )
        _assert_same(result, expected[which])
        assert info["mode"] in ("parallel", "parallel-degraded")
        assert all(len(w.resident) <= parallel._RESIDENT_TABLES for w in parallel._FLEET)
        assert time.monotonic() < deadline, f"stress run overran at turn {turn}"
    assert len(_fleet_children()) == 4


def test_shutdown_reaps_every_child_and_the_fleet_restarts(data, query):
    table = load_table(data, Layout.COLUMN)
    parallel_query(table, query, workers=2)
    assert len(_fleet_children()) >= 2
    shutdown_pools()
    assert not parallel._FLEET
    assert not multiprocessing.active_children()
    info: dict = {}
    result = parallel_query(table, query, workers=2, info=info)
    assert info["mode"] == "parallel"
    assert len(_fleet_children()) == 2
    _assert_same(result, run_scan(table, query))


def test_table_not_yet_resident_is_shipped_once_per_worker(data, query):
    """A running fleet gets a table it lacks over the pipe, once per
    worker; result and events are those of the same partitions run inline."""
    inline = ExecutionContext()
    expected = parallel_query(
        load_table(data, Layout.COLUMN), query, workers=1, partitions=2, context=inline
    )
    _assert_same(expected, run_scan(load_table(data, Layout.COLUMN), query))
    parallel_query(load_table(data, Layout.COLUMN), query, workers=2)  # a running fleet
    table = load_table(data, Layout.COLUMN)  # not yet resident anywhere
    context = ExecutionContext()
    info: dict = {}
    result = parallel_query(table, query, workers=2, context=context, info=info)
    assert info["mode"] == "parallel"
    assert info["tables_shipped"] == 2
    _assert_same(result, expected)
    assert context.events.as_dict() == inline.events.as_dict()
