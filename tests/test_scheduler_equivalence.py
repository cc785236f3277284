"""Concurrent scheduler vs. the serial oracle — byte-identical, always.

N randomly generated queries (seed-replayable) run concurrently through
the :class:`~repro.engine.scheduler.Scheduler` under every combination
of sharing on/off and all four scanner architectures; each handle's
result must be byte-identical (positions, columns, dtypes) to the same
query executed serially, and spot-checked against the NumPy-free
reference oracle.  To replay one failing combination::

    pytest tests/test_scheduler_equivalence.py -k "32-on-column"
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.executor import run_scan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler, WorkloadQuery
from repro.errors import QueryTimeout
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.harness import CONFIGS
from repro.testing.oracle import oracle_scan

ROWS = 600

CONFIG_BY_NAME = {config.name: config for config in CONFIGS}

SELECTABLE = (
    "O_ORDERKEY",
    "O_CUSTKEY",
    "O_TOTALPRICE",
    "O_ORDERDATE",
    "O_SHIPPRIORITY",
    "O_ORDERSTATUS",
)


@pytest.fixture(scope="module")
def orders_data():
    return generate_orders(ROWS, seed=17)


def make_workload(seed: int, n: int, data) -> list[ScanQuery]:
    """``n`` random scan queries, fully determined by ``seed``.

    Column sets repeat often (drawn from a small pool) so that shared
    scans actually trigger; selectivities span empty to full results.
    """
    rng = random.Random(f"scheduler-equivalence-{seed}")
    pools = [
        ("O_ORDERKEY", "O_TOTALPRICE"),
        ("O_ORDERKEY", "O_CUSTKEY", "O_ORDERDATE"),
        SELECTABLE,
    ]
    queries = []
    for _ in range(n):
        select = pools[rng.randrange(len(pools))]
        predicates = ()
        if rng.random() < 0.8:
            attr = rng.choice([name for name in select if name != "O_ORDERSTATUS"])
            selectivity = rng.choice([0.0, 0.1, 0.45, 0.9, 1.0])
            predicates = (
                predicate_for_selectivity(attr, data.column(attr), selectivity),
            )
        queries.append(ScanQuery("ORDERS", select=select, predicates=predicates))
    return queries


def assert_identical(got, want) -> None:
    assert np.array_equal(got.positions, want.positions)
    assert got.positions.dtype == want.positions.dtype
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert np.array_equal(got.columns[name], want.columns[name]), name
        assert got.columns[name].dtype == want.columns[name].dtype, name


@pytest.mark.parametrize("config_name", [config.name for config in CONFIGS])
@pytest.mark.parametrize("sharing", ["on", "off"])
@pytest.mark.parametrize("n", [2, 8, 32])
def test_concurrent_matches_serial(orders_data, config_name, sharing, n):
    config = CONFIG_BY_NAME[config_name]
    queries = make_workload(seed=n * 101 + len(config_name), n=n, data=orders_data)
    table = load_table(orders_data, config.layout)
    scheduler = Scheduler(
        max_inflight=max(2, n // 4),
        share_scans=sharing == "on",
        column_scanner=config.column_scanner,
    )
    handles = [scheduler.submit(table, query) for query in queries]
    scheduler.run()
    serial_table = load_table(orders_data, config.layout)
    for index, (handle, query) in enumerate(zip(handles, queries)):
        assert handle.state is QueryState.DONE, f"query {index}: {handle.error}"
        want = run_scan(serial_table, query, column_scanner=config.column_scanner)
        assert_identical(handle.result, want)
    stats = scheduler.stats()
    assert stats["completed"] == n and stats["failed"] == 0
    if sharing == "off":
        assert stats["share_hits"] == 0


@pytest.mark.parametrize("config_name", [config.name for config in CONFIGS])
def test_identical_queries_share_one_stream(orders_data, config_name):
    """Same column set, all in flight together: every follower attaches."""
    config = CONFIG_BY_NAME[config_name]
    table = load_table(orders_data, config.layout)
    query = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
    scheduler = Scheduler(
        max_inflight=8, share_scans=True, column_scanner=config.column_scanner
    )
    handles = [scheduler.submit(table, query) for _ in range(8)]
    scheduler.run()
    want = run_scan(
        load_table(orders_data, config.layout),
        query,
        column_scanner=config.column_scanner,
    )
    for handle in handles:
        assert handle.state is QueryState.DONE, handle.error
        assert handle.shared
        assert_identical(handle.result, want)
    stats = scheduler.stats()
    assert stats["share_hits"] == 7 and stats["share_misses"] == 1


def test_oracle_spot_check(orders_data):
    """A few scheduler results checked against the reference executor."""
    config = CONFIG_BY_NAME["column"]
    queries = make_workload(seed=7, n=6, data=orders_data)
    table = load_table(orders_data, config.layout)
    scheduler = Scheduler(max_inflight=3, share_scans=True)
    handles = [scheduler.submit(table, query) for query in queries]
    scheduler.run()
    for handle, query in zip(handles, queries):
        expected = oracle_scan(orders_data, query)
        assert handle.result.positions.tolist() == list(expected.positions)
        for name in query.select:
            got = handle.result.columns[name].tolist()
            assert got == pytest.approx(expected.column(name))


def test_seed_replay_is_deterministic(orders_data):
    a = make_workload(seed=42, n=8, data=orders_data)
    b = make_workload(seed=42, n=8, data=orders_data)
    assert a == b
    c = make_workload(seed=43, n=8, data=orders_data)
    assert a != c


class TestInterleavedSubmission:
    """Mid-flight arrivals (the circular-attach path) stay correct."""

    def test_staggered_submission_matches_serial(self, orders_data):
        table = load_table(orders_data, Layout.COLUMN)
        serial_table = load_table(orders_data, Layout.COLUMN)
        queries = make_workload(seed=5, n=12, data=orders_data)
        scheduler = Scheduler(max_inflight=4, share_scans=True)
        handles = []
        for index, query in enumerate(queries):
            handles.append(scheduler.submit(table, query))
            # Let earlier queries make progress so later ones attach
            # to streams mid-pass rather than at segment zero.
            for _ in range(index % 3):
                scheduler.poll()
        scheduler.run()
        for handle, query in zip(handles, queries):
            assert handle.state is QueryState.DONE, handle.error
            assert_identical(handle.result, run_scan(serial_table, query))


class TestDatabaseFacade:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(layouts=(Layout.ROW, Layout.COLUMN))
        database.create_table(generate_orders(ROWS, seed=17))
        return database

    def test_submit_then_value(self, db, orders_data):
        handle = db.submit("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        result = handle.value()
        want = db.query("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        assert_identical(result, want)
        assert handle.done and handle.latency is not None

    def test_submit_queue_time_counts_against_deadline(self, db):
        handle = db.submit("ORDERS", select=("O_ORDERKEY",), timeout=0.0)
        with pytest.raises(QueryTimeout):
            handle.value()
        assert handle.state is QueryState.FAILED

    def test_run_workload_order_and_stats(self, db, orders_data):
        requests = [
            WorkloadQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE")),
            {"table": "ORDERS", "select": ("O_CUSTKEY",), "label": "dict-form"},
            WorkloadQuery(
                "ORDERS",
                select=("O_ORDERKEY", "O_TOTALPRICE"),
                predicates=(
                    predicate_for_selectivity(
                        "O_TOTALPRICE", orders_data.column("O_TOTALPRICE"), 0.5
                    ),
                ),
            ),
        ]
        info: dict = {}
        handles = db.run_workload(requests, max_inflight=2, info=info)
        assert [h.state for h in handles] == [QueryState.DONE] * 3
        assert handles[1].result.num_tuples == ROWS
        assert info["submitted"] == 3 and info["completed"] == 3
        assert info["modeled_io_bytes"] > 0

    def test_run_workload_sharing_reduces_modeled_io(self, db):
        requests = [
            WorkloadQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
            for _ in range(4)
        ]
        on: dict = {}
        off: dict = {}
        db.run_workload(requests, layout=Layout.COLUMN, share_scans=True, info=on)
        db.run_workload(requests, layout=Layout.COLUMN, share_scans=False, info=off)
        assert on["modeled_io_bytes"] < off["modeled_io_bytes"]

    def test_workload_trace_has_per_query_tracks(self, db):
        info: dict = {}
        requests = [
            WorkloadQuery("ORDERS", select=("O_ORDERKEY",), label=f"q{i}")
            for i in range(3)
        ]
        db.run_workload(requests, trace=True, info=info)
        tracer = info["tracer"]
        tracks = {piece.track for piece in tracer.slices}
        assert len(tracks) == 3

    def test_a_finished_batch_is_freed_by_reference_count(self, db, monkeypatch):
        """A finished handle lets go of its scheduler: the batch's
        scheduler, streams and plans go when ``run_workload`` returns
        and its results when the handles do — no cycle collector."""
        schedulers, streams = [], []

        class Recorded(Scheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                schedulers.append(weakref.ref(self))

            def _build_plan(self, handle):
                plan, context = super()._build_plan(handle)
                streams.append(weakref.ref(plan.share))
                return plan, context

        monkeypatch.setattr("repro.database.Scheduler", Recorded)
        requests = [
            WorkloadQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE")) for _ in range(12)
        ]
        gc.disable()
        try:
            handles = db.run_workload(requests, max_inflight=4)
            (scheduler,) = schedulers
            assert scheduler() is None, "the batch's scheduler waits for the cycle collector"
            assert len(streams) == len(requests)
            assert all(stream() is None for stream in streams)
            assert all(handle.state is QueryState.DONE for handle in handles)
            # A finished handle still answers, at once.
            assert handles[0].wait() is handles[0]
            assert handles[0].value().num_tuples == ROWS
            result = weakref.ref(handles[0].result.positions)
            del handles
            assert result() is None
        finally:
            gc.enable()

    def test_an_unfinished_handle_still_drives_its_scheduler(self, db):
        handle = db.submit("ORDERS", select=("O_CUSTKEY",))
        assert not handle.done and handle._scheduler is db.scheduler
        assert handle.wait().state is QueryState.DONE
        assert handle._scheduler is None
        assert handle.value().num_tuples == ROWS
