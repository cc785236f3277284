"""Fault handling under parallel execution: determinism and degradation.

Three guarantees from the parallel executor:

* deterministic corruption accounting — a fixed, seeded bit flip
  surfaces the *same* ``CorruptionReport`` fault set whether the
  salvage scan runs serially or split across partitions (boundary
  pages decoded by two adjacent partitions are deduplicated, not
  double-reported);
* graceful degradation — a crashing partition never hangs the pool;
  it is retried inline and the query still returns the correct
  answer, with cost events counted exactly once;
* safe sharing — what partitions on pool threads share (verified-page
  flags, fault plans, metrics, the flight recorder) gives every query
  the serial answer, also from two caller threads at once.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.parallel import parallel_query
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.errors import ChecksumError
from repro.obs import metrics
from repro.obs import recorder as flight
from repro.obs.recorder import FlightRecorder
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table

ROWS = 2_000

ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)


@pytest.fixture(scope="module")
def data():
    return generate_orders(ROWS, seed=41)


@pytest.fixture(scope="module")
def query(data):
    predicate = predicate_for_selectivity(
        "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.5
    )
    return ScanQuery(
        "ORDERS",
        select=("O_ORDERKEY", "O_TOTALPRICE"),
        predicates=(predicate,),
    )


def _faulty_table(data, layout, pages=(1, 3)):
    """A freshly loaded table with fixed bit flips on ``pages``.

    Explicit byte/bit offsets make the flips independent of read order,
    so every partition sees the same corruption.
    """
    table = load_table(data, layout)
    plan = FaultPlan(seed=99)
    for page in pages:
        plan.schedule_bit_flip(page=page, byte=80, bit=4)
    plan.wrap_table(table)
    return table


def _fault_set(report):
    return sorted((f.file, f.page, f.rows_lost) for f in report.faults)


class TestFaultDeterminism:
    @pytest.mark.parametrize("arch,layout,kind", ARCHITECTURES)
    def test_parallel_salvage_reports_same_faults_as_serial(
        self, data, query, arch, layout, kind
    ):
        serial = run_scan(
            _faulty_table(data, layout), query, column_scanner=kind, salvage=True
        )
        assert not serial.corruption.is_clean  # the flips actually landed
        parallel = parallel_query(
            _faulty_table(data, layout),
            query,
            workers=2,
            partitions=3,
            column_scanner=kind,
            salvage=True,
        )
        assert np.array_equal(parallel.positions, serial.positions)
        for name in serial.columns:
            assert np.array_equal(parallel.columns[name], serial.columns[name])
        assert _fault_set(parallel.corruption) == _fault_set(serial.corruption)

    def test_boundary_page_not_double_reported(self, data, query):
        # Many narrow partitions guarantee some partition boundary
        # falls inside a corrupt page, so two partitions each decode (and
        # report) it; the merged report must still list it once.
        serial = run_scan(
            _faulty_table(data, Layout.ROW), query, salvage=True
        )
        parallel = parallel_query(
            _faulty_table(data, Layout.ROW),
            query,
            workers=2,
            partitions=16,
            salvage=True,
        )
        assert _fault_set(parallel.corruption) == _fault_set(serial.corruption)
        pages = [(f.file, f.page) for f in parallel.corruption.faults]
        assert len(pages) == len(set(pages))

    def test_strict_mode_still_raises(self, data, query):
        with pytest.raises(ChecksumError):
            parallel_query(
                _faulty_table(data, Layout.ROW), query, workers=2, partitions=3
            )


class TestCrashDegradation:
    def test_injected_crash_retries_only_that_partition(self, data, query):
        table = load_table(data, Layout.ROW)
        serial = run_scan(table, query)
        info = {}
        result = parallel_query(
            table, query, workers=2, partitions=4, inject_crash=2, info=info
        )
        # Supervision ladder: the healthy partitions' pool results are
        # kept and only the crashed one is re-run inline.
        assert info["mode"] == "parallel-degraded"
        assert "WorkerCrash" in info["fallback_reason"]
        assert any("partition 2" in note for note in info["governance"])
        assert np.array_equal(result.positions, serial.positions)
        for name in serial.columns:
            assert np.array_equal(result.columns[name], serial.columns[name])

    def test_crash_fallback_counts_events_exactly_once(self, data, query):
        table = load_table(data, Layout.ROW)
        baseline = ExecutionContext()
        parallel_query(
            table, query, workers=2, partitions=4, context=baseline
        )
        crashed = ExecutionContext()
        parallel_query(
            table, query, workers=2, partitions=4, context=crashed, inject_crash=1
        )
        # The discarded pool attempt must leave no residue: the retry's
        # totals equal a clean parallel run's.
        assert crashed.events.as_dict() == baseline.events.as_dict()

    def test_crash_of_every_worker_index_recovers(self, data, query):
        table = load_table(data, Layout.ROW)
        serial = run_scan(table, query)
        for index in range(3):
            result = parallel_query(
                table, query, workers=2, partitions=3, inject_crash=index
            )
            assert np.array_equal(result.positions, serial.positions)


# --- what partitions on pool threads share -------------------------------------------


def _boundary_corrupted(data, layout):
    """A freshly loaded table, every page verified by a clean scan, then
    page 1 and the page holding the two partitions' boundary row
    corrupted in place: both partitions of a ``workers=2`` query read
    that page at once, and their windows hold verified pages beside
    unverified ones, so they check, fail and keep ``failed_check``
    concurrently."""
    table = load_table(data, layout)
    run_scan(table, ScanQuery("ORDERS", select=tuple(data.schema.attribute_names)))
    if layout == Layout.COLUMN:
        column_file = table.column_file("O_TOTALPRICE")
        file = column_file.file
        boundary = int(column_file.page_of_positions(np.array([ROWS // 2]))[0])
    else:
        file = table.file
        boundary = (ROWS // 2) // table.page_codec.tuples_per_page
    for page in (1, boundary):
        file.corrupt(page, 97)
    return table


class TestSharedState:
    LAYOUTS = (Layout.ROW, Layout.PAX, Layout.COLUMN)

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        """Switch threads far more often than every 5 ms, the default,
        so a read-modify-write left unlocked would lose updates here."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_salvage_queries_on_two_caller_threads_match_serial(
        self, data, query, monkeypatch
    ):
        """50 salvage ``workers=2`` queries — 30 one after another on
        fresh tables, 20 from two caller threads at once on shared ones
        — each equal to the serial salvage scan, with every salvaged
        page counted and recorded once per partition that dropped it."""
        metrics.enable()
        monkeypatch.setattr(flight, "RECORDER", FlightRecorder(capacity=1 << 16))
        expected, dropped = {}, {}
        for layout in self.LAYOUTS:
            expected[layout] = run_scan(
                _boundary_corrupted(data, layout), query, salvage=True
            )
            assert len(expected[layout].corruption.faults) == 2
            # The same partitions run inline: how many pages they drop.
            before = metrics.PAGES_SALVAGED.value
            parallel_query(
                _boundary_corrupted(data, layout), query, workers=1, partitions=2,
                salvage=True,
            )
            dropped[layout] = metrics.PAGES_SALVAGED.value - before
        flight.RECORDER.clear()
        salvaged_before = metrics.PAGES_SALVAGED.value

        def check(table, layout) -> None:
            info: dict = {}
            result = parallel_query(table, query, workers=2, salvage=True, info=info)
            assert info["mode"] == "parallel"
            serial = expected[layout]
            assert np.array_equal(result.positions, serial.positions)
            for name in serial.columns:
                assert np.array_equal(result.columns[name], serial.columns[name])
            assert _fault_set(result.corruption) == _fault_set(serial.corruption)

        ran = []
        for turn in range(30):
            layout = self.LAYOUTS[turn % 3]
            check(_boundary_corrupted(data, layout), layout)
            ran.append(layout)

        shared = {layout: _boundary_corrupted(data, layout) for layout in self.LAYOUTS}
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def caller(offset: int) -> None:
            try:
                barrier.wait()
                for turn in range(10):
                    layout = self.LAYOUTS[(turn + offset) % 3]
                    check(shared[layout], layout)
                    ran.append(layout)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(ran) == 50
        # No increment lost between threads, and every partition-side
        # salvage event reached this process's ring, numbered once.
        assert metrics.PAGES_SALVAGED.value - salvaged_before == sum(
            dropped[layout] for layout in ran
        )
        events = flight.RECORDER.events("storage.salvage")
        assert len(events) == sum(dropped[layout] for layout in ran)
        seqs = [event.seq for event in flight.RECORDER.events()]
        assert len(seqs) == len(set(seqs))

    def test_first_queries_on_unverified_tables_stay_on_the_pool(self, data, query):
        """The first query on a freshly loaded table: both partitions
        mark their pages verified at once, growing one file's flags from
        empty, and no partition fails or is retried for it."""
        expected = {layout: run_scan(load_table(data, layout), query) for layout in self.LAYOUTS}
        for turn in range(60):
            layout = self.LAYOUTS[turn % 3]
            info: dict = {}
            result = parallel_query(load_table(data, layout), query, workers=2, info=info)
            assert info["mode"] == "parallel", info["fallback_reason"]
            serial = expected[layout]
            assert np.array_equal(result.positions, serial.positions)
            for name in serial.columns:
                assert np.array_equal(result.columns[name], serial.columns[name])

    def test_a_shared_fault_plan_fires_exactly_as_scheduled(self, data, query, monkeypatch):
        """Both partitions read through one ``FaultPlan``: its transient
        faults fire as often as scheduled, each retried where it struck,
        and each retry reaches the ring."""
        monkeypatch.setattr(flight, "RECORDER", FlightRecorder())
        table = load_table(data, Layout.COLUMN)
        plan = FaultPlan(seed=5)
        plan.wrap_table(table)
        expected = run_scan(table, query)
        for _turn in range(10):
            plan.schedule_transient_reads(3)
            before = plan.transient_raised
            info: dict = {}
            result = parallel_query(table, query, workers=2, info=info)
            assert info["mode"] == "parallel"
            assert np.array_equal(result.positions, expected.positions)
            assert plan.transient_raised - before == 3
        assert len(flight.RECORDER.events("storage.retry")) == 30
