"""Dispatch over the partition pool.

What the pool promises beyond byte-identity (that is
``test_parallel_equivalence.py``):

* results wake the supervisor — ``poll_interval`` is a ceiling between
  governance checks, never a floor under query latency;
* partitions hold the caller's cancellation token, so a cancel stops
  them mid-scan rather than at the supervisor's next poll;
* partitions read the caller's tables in place, and every way a table
  can change (a fault wrapper, a merge swap) is seen by the next query;
* ``shutdown_pools`` stops every pool thread and the next query starts
  a new pool.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.governance import CancellationToken, QueryContext, SupervisionPolicy
from repro.engine.parallel import parallel_query, shutdown_pools
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.errors import QueryCancelled
from repro.obs import recorder as flight
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.chaos import slow_down_table

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


def _pool_threads() -> list:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-partition")
    ]


def test_poll_interval_is_a_ceiling_not_a_floor(data, query):
    table = load_table(data, Layout.COLUMN)
    policy = SupervisionPolicy(poll_interval=0.5)
    parallel_query(table, query, workers=2, policy=policy)  # start the pool
    info: dict = {}
    started = time.monotonic()
    result = parallel_query(table, query, workers=2, policy=policy, info=info)
    elapsed = time.monotonic() - started
    assert info["mode"] == "parallel"
    assert elapsed < 0.25, f"a finished partition must wake the supervisor ({elapsed:.3f}s)"
    assert info["dispatch_ms"] <= elapsed * 1e3
    _assert_same(result, run_scan(table, query))


def test_a_cancel_stops_partitions_mid_scan(query):
    """A token cancelled 0.1 s into a query whose partitions take over
    3 s each stops them at their next page: the query raises within
    1 s, though the supervisor polls the token only every 5 s, and the
    cancel is recorded once, under the query's label."""
    table = load_table(generate_orders(8_000, seed=41), Layout.ROW)
    delay = 0.1
    assert table.file.num_pages // 2 * delay >= 3.0
    slow_down_table(table, delay)
    token = CancellationToken()
    context = ExecutionContext(
        # Page at a time: a checkpoint between every two page reads.
        calibration=DEFAULT_CALIBRATION.with_overrides(
            io_unit_bytes=table.page_size, default_prefetch_depth=1
        ),
        governance=QueryContext(token=token, label="cancelled mid-scan"),
    )
    timer = threading.Timer(0.1, token.cancel, args=("caller gave up",))
    cancels = len(flight.RECORDER.events("governance.cancel"))
    started = time.monotonic()
    timer.start()
    try:
        with pytest.raises(QueryCancelled, match="caller gave up"):
            parallel_query(
                table,
                query,
                workers=2,
                context=context,
                policy=SupervisionPolicy(poll_interval=5.0),
            )
    finally:
        timer.cancel()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"the cancel must land mid-scan ({elapsed:.2f}s)"
    recorded = flight.RECORDER.events("governance.cancel")[cancels:]
    assert [event.query for event in recorded] == ["cancelled mid-scan"]


def test_a_partition_queued_behind_another_query_is_not_stalled(data, query):
    """Two callers' partitions share a pool of two threads, so two of
    the four wait in its queue for longer than ``stall_timeout`` while
    the others run.  Queued is not silent: neither query records a stall
    or leaves the pool, and both return the serial answer."""
    expected = run_scan(load_table(generate_orders(8_000, seed=41), Layout.ROW), query)
    table = load_table(generate_orders(8_000, seed=41), Layout.ROW)
    delay = 0.03
    per_partition = table.file.num_pages // 2 * delay
    assert per_partition >= 0.8
    slow_down_table(table, delay)
    policy = SupervisionPolicy(stall_timeout=0.3)
    shutdown_pools()  # a pool of exactly two threads
    barrier = threading.Barrier(2)
    infos: list[dict] = [{}, {}]
    errors: list[BaseException] = []

    def caller(slot: int) -> None:
        context = ExecutionContext(
            # Page at a time: a checkpoint between every two page reads.
            calibration=DEFAULT_CALIBRATION.with_overrides(
                io_unit_bytes=table.page_size, default_prefetch_depth=1
            ),
            governance=QueryContext(label=f"caller {slot}"),
        )
        try:
            barrier.wait()
            result = parallel_query(
                table, query, workers=2, context=context, policy=policy, info=infos[slot]
            )
            _assert_same(result, expected)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    stalls = len(flight.RECORDER.events("parallel.stall"))
    started = time.monotonic()
    threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    elapsed = time.monotonic() - started
    assert not errors, errors
    assert elapsed >= 2 * per_partition  # two partitions did wait their turn
    assert [info["mode"] for info in infos] == ["parallel", "parallel"], infos
    assert infos[0]["governance"] == infos[1]["governance"] == []
    assert len(flight.RECORDER.events("parallel.stall")) == stalls


class TestResidency:
    def test_parent_does_not_pin_resident_tables(self, data, query):
        table = load_table(data, Layout.COLUMN)
        parallel_query(table, query, workers=2)
        gone = weakref.ref(table)
        del table
        gc.collect()
        assert gone() is None  # e.g. a version superseded by Database.merge

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


def test_shutdown_stops_every_pool_thread_and_the_next_query_starts_a_pool(
    data, query
):
    table = load_table(data, Layout.COLUMN)
    parallel_query(table, query, workers=2)
    assert _pool_threads()
    shutdown_pools()
    assert not _pool_threads()
    info: dict = {}
    result = parallel_query(table, query, workers=2, info=info)
    assert info["mode"] == "parallel"
    _assert_same(result, run_scan(table, query))
