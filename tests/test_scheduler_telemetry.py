"""Telemetry attribution under the cooperative scheduler.

The engine interleaves many queries on one thread, which is exactly
where naive telemetry goes wrong: a global tracer would attribute one
query's decode work to whichever peer happened to hold the timeslice,
and shared-scan deliveries land *during a peer's pump*.  The design
avoids cross-attribution structurally:

* every scheduled query runs on its **own** ``ExecutionContext`` (its
  ``events`` is the per-query CostEvents diff) and — when traced — its
  **own** ``SpanTracer``;
* a shared-scan delivery is recorded on the *receiving* consumer's
  tracer (``SharedScanConsumer._receive`` opens a span on its own
  context), so work done off a peer's pump still lands on the query
  that benefited;
* the process-wide ``metrics.REGISTRY`` is intentionally the workload
  **sum** — never used for per-query numbers.

The regression tests here pin the resulting invariant: for every query
of a traced batch, sharing on or off, the tracer's aggregated span
events equal that query's own result events **exactly** — nothing
leaks in from peers, nothing leaks out.
"""

from __future__ import annotations

import pytest

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler
from repro.obs import metrics
from repro.obs import recorder as flight
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table

ROWS = 4_000


@pytest.fixture(scope="module")
def workload():
    data = generate_orders(ROWS, seed=31)
    table = load_table(data, Layout.COLUMN)
    queries = [
        ScanQuery(
            "ORDERS",
            select=("O_ORDERKEY", "O_TOTALPRICE"),
            predicates=(
                predicate_for_selectivity(
                    "O_TOTALPRICE", data.column("O_TOTALPRICE"), selectivity
                ),
            ),
        )
        for selectivity in (0.1, 0.3, 0.5, 0.8)
    ]
    return table, queries


def _run_traced(table, queries, share: bool) -> Scheduler:
    scheduler = Scheduler(max_inflight=8, share_scans=share, trace=True)
    for index, query in enumerate(queries):
        scheduler.submit(table, query, label=f"telemetry q{index}")
    scheduler.run()
    assert all(h.state is QueryState.DONE for h in scheduler.handles())
    return scheduler


class TestPerQueryAttribution:
    @pytest.mark.parametrize("share", [False, True], ids=["solo", "shared"])
    def test_tracer_events_equal_result_events_exactly(self, workload, share):
        table, queries = workload
        scheduler = _run_traced(table, queries, share)
        for handle in scheduler.handles():
            traced = handle._tracer.total_events().as_dict()
            owned = handle.result.events.as_dict()
            assert traced == owned, (
                f"{handle.governance.label}: span attribution drifted from "
                f"the query's own ExecutionContext"
            )

    def test_shared_deliveries_do_not_leak_to_peers(self, workload):
        """Distinct selectivities => distinct per-query output costs."""
        table, queries = workload
        scheduler = _run_traced(table, queries, share=True)
        # Every rider filters the same delivered segments (so each
        # examines the full table's values)...
        for handle in scheduler.handles():
            assert handle.result.events.values_examined >= ROWS
        # ...but each copies only its own qualifying tuples.  Had a
        # peer's work been attributed here, these would collapse to one
        # value (or sum to more than the batch's true total).
        copied = [
            handle.result.events.bytes_copied
            for handle in scheduler.handles()
        ]
        rows = [handle.result.num_tuples for handle in scheduler.handles()]
        assert len(set(rows)) == len(rows)
        assert sorted(copied) == [c for _, c in sorted(zip(rows, copied))]

    def test_each_query_has_its_own_tracer(self, workload):
        table, queries = workload
        scheduler = _run_traced(table, queries, share=True)
        tracers = [handle._tracer for handle in scheduler.handles()]
        assert len({id(tracer) for tracer in tracers}) == len(tracers)
        assert all(tracer.roots for tracer in tracers)


class TestRegistryIsTheWorkloadSum:
    def test_registry_counts_the_batch_not_the_query(self, workload):
        table, queries = workload
        metrics.enable()
        metrics.REGISTRY.reset_values()
        _run_traced(table, queries, share=False)
        assert metrics.SCHEDULER_COMPLETED.value == len(queries)
        # The window saw every completion; per-query latencies live on
        # the handles, never in the registry.
        assert metrics.WINDOW_QUERY_LATENCY.count == len(queries)
        metrics.REGISTRY.reset_values()


class TestBoard:
    def test_board_tracks_queue_run_and_done(self, workload):
        table, queries = workload
        scheduler = Scheduler(max_inflight=2, share_scans=False)
        for index, query in enumerate(queries):
            scheduler.submit(table, query, label=f"board q{index}")
        board = scheduler.board()
        assert len(board["queued"]) == len(queries)
        assert board["running"] == []

        assert scheduler.poll()
        board = scheduler.board()
        assert len(board["running"]) == 2  # max_inflight admitted
        entry = board["running"][0]
        assert set(entry) == {"label", "table", "slices", "shared"}
        assert entry["table"] == "ORDERS"
        assert entry["slices"] >= 1

        scheduler.run()
        board = scheduler.board()
        assert board["completed"] == len(queries)
        assert board["queued"] == [] and board["running"] == []

    def test_board_exposes_live_shared_streams(self, workload):
        table, queries = workload
        scheduler = Scheduler(max_inflight=8, share_scans=True)
        boards = []
        for index, query in enumerate(queries):
            # The table is one window long, so the whole pass is the
            # first rider's first timeslice: the board is read from
            # inside it, at that rider's checkpoints.
            scheduler.submit(
                table,
                query,
                label=f"stream q{index}",
                on_tick=(lambda _governance: boards.append(scheduler.board()["streams"]))
                if index == 0
                else None,
            )
        assert scheduler.poll()
        assert boards[0] == []  # its admission check: no stream yet
        streams = boards[1]
        assert len(streams) == 1
        stream = streams[0]
        assert stream["table"] == "ORDERS"
        assert stream["segments"] > 0
        assert set(stream["riders"]) == {f"stream q{i}" for i in range(len(queries))}
        scheduler.run()
        assert scheduler.board()["streams"] == []


class TestSharedReadsUseTheGuardedRead:
    """Pages a shared stream reads go through the same guarded read as
    a serial scan's, and the per-query salvage accounting stays put."""

    SALVAGE_QUERY = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        metrics.enable()
        metrics.REGISTRY.reset_values()
        flight.enable()
        flight.RECORDER.clear()
        yield
        metrics.REGISTRY.reset_values()
        flight.RECORDER.clear()

    @staticmethod
    def _corrupt_table():
        """COLUMN ORDERS whose O_TOTALPRICE page 1 reads bit-flipped."""
        table = load_table(generate_orders(ROWS, seed=31), Layout.COLUMN)
        plan = FaultPlan(seed=3)
        plan.schedule_bit_flip(
            1, file=table.column_file("O_TOTALPRICE").file.name, byte=11, bit=3
        )
        plan.wrap_table(table)
        return table, plan

    def test_shared_batch_times_every_page_its_streams_decoded(self, workload):
        table, queries = workload
        scheduler = Scheduler(max_inflight=8, share_scans=True)
        for query in queries:
            scheduler.submit(table, query)
        scheduler.run()
        assert scheduler.manager.io_pages() > 0
        assert metrics.PAGE_DECODE_SECONDS.count == scheduler.manager.io_pages()

    def test_salvaged_page_counts_per_rider_and_is_read_once(self):
        table, plan = self._corrupt_table()
        riders = 3
        scheduler = Scheduler(max_inflight=8, share_scans=True)
        handles = [
            scheduler.submit(table, self.SALVAGE_QUERY, salvage=True)
            for _ in range(riders)
        ]
        scheduler.run()
        assert all(len(h.result.corruption.faults) == 1 for h in handles)
        # One pass, one read of the corrupt page, however many riders.
        assert plan.pages_corrupted == 1
        assert len(flight.RECORDER.events(kind="storage.salvage")) == 1
        # Once per query that lost the page — not once more for the
        # stream's own read.
        assert metrics.PAGES_SALVAGED.value == riders
        # Only successful decodes are timed, exactly as in a serial scan.
        assert (
            metrics.PAGE_DECODE_SECONDS.count == scheduler.manager.io_pages() - 1
        )

    def test_serial_salvage_scan_counts_the_page_once(self):
        table, plan = self._corrupt_table()
        result = run_scan(table, self.SALVAGE_QUERY, salvage=True)
        assert len(result.corruption.faults) == 1
        assert plan.pages_corrupted == 1
        assert metrics.PAGES_SALVAGED.value == 1
        assert len(flight.RECORDER.events(kind="storage.salvage")) == 1
        assert metrics.PAGE_DECODE_SECONDS.count == result.events.pages_touched
