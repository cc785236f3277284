"""Secondary-index and access-path tests (Section 2.1.1)."""

import numpy as np
import pytest

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.predicate import ComparisonOp, Predicate, predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.errors import PlanError, SimulationError
from repro.index.access_path import (
    breakeven_selectivity,
    compare_access_paths,
    index_scan_seconds,
    index_scan_seconds_for_rids,
    sequential_scan_seconds,
)
from repro.index.scan import IndexScan
from repro.index.secondary import SecondaryIndex


@pytest.fixture(scope="module")
def custkey_index(orders_data):
    return SecondaryIndex("O_CUSTKEY", orders_data.column("O_CUSTKEY"))


class TestSecondaryIndex:
    def test_lookup_matches_full_scan(self, orders_data, custkey_index):
        predicate = Predicate("O_CUSTKEY", ComparisonOp.LE, 50_000)
        rids = custkey_index.lookup_predicate(predicate)
        expected = np.flatnonzero(predicate.evaluate(orders_data.column("O_CUSTKEY")))
        np.testing.assert_array_equal(rids, expected)

    @pytest.mark.parametrize(
        "op", [ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE, ComparisonOp.EQ]
    )
    def test_all_btree_operators(self, orders_data, custkey_index, op):
        value = int(orders_data.column("O_CUSTKEY")[7])
        predicate = Predicate("O_CUSTKEY", op, value)
        rids = custkey_index.lookup_predicate(predicate)
        expected = np.flatnonzero(predicate.evaluate(orders_data.column("O_CUSTKEY")))
        np.testing.assert_array_equal(rids, expected)

    def test_rids_sorted_for_head_movement(self, custkey_index):
        rids = custkey_index.lookup_predicate(
            Predicate("O_CUSTKEY", ComparisonOp.LE, 100_000)
        )
        assert (np.diff(rids) > 0).all()

    def test_range_lookup(self, orders_data, custkey_index):
        rids = custkey_index.lookup_range(10_000, 20_000)
        keys = orders_data.column("O_CUSTKEY")
        expected = np.flatnonzero((keys >= 10_000) & (keys <= 20_000))
        np.testing.assert_array_equal(rids, expected)

    def test_wrong_attribute_rejected(self, custkey_index):
        with pytest.raises(PlanError):
            custkey_index.lookup_predicate(
                Predicate("O_ORDERDATE", ComparisonOp.LE, 5)
            )

    def test_ne_not_indexable(self, custkey_index):
        with pytest.raises(PlanError):
            custkey_index.lookup_predicate(
                Predicate("O_CUSTKEY", ComparisonOp.NE, 5)
            )

    def test_empty_column_rejected(self):
        with pytest.raises(PlanError):
            SecondaryIndex("x", np.array([], dtype=np.int64))

    def test_selectivity_estimate(self, orders_data, custkey_index):
        predicate = predicate_for_selectivity(
            "O_CUSTKEY", orders_data.column("O_CUSTKEY"), 0.25
        )
        selectivity = custkey_index.lookup_predicate(predicate).size / custkey_index.num_rows
        assert selectivity == pytest.approx(0.25, abs=0.02)


class TestIndexScanOperator:
    def test_matches_table_scan(self, orders_data, orders_row, custkey_index):
        predicate = predicate_for_selectivity(
            "O_CUSTKEY", orders_data.column("O_CUSTKEY"), 0.05
        )
        select = ("O_CUSTKEY", "O_TOTALPRICE")
        reference = run_scan(
            orders_row, ScanQuery("ORDERS", select=select, predicates=(predicate,))
        )
        context = ExecutionContext()
        scan = IndexScan(context, orders_row, custkey_index, predicate, select)
        result = execute_plan(scan)
        np.testing.assert_array_equal(result.positions, reference.positions)
        for name in select:
            np.testing.assert_array_equal(result.column(name), reference.column(name))

    def test_touches_only_matching_pages(self, orders_data, orders_row, custkey_index):
        predicate = predicate_for_selectivity(
            "O_CUSTKEY", orders_data.column("O_CUSTKEY"), 0.002
        )
        context = ExecutionContext()
        scan = IndexScan(
            context, orders_row, custkey_index, predicate, ("O_TOTALPRICE",)
        )
        execute_plan(scan)
        assert context.events.pages_touched < orders_row.file.num_pages / 2

    def test_size_mismatch_rejected(self, orders_row):
        short_index = SecondaryIndex("O_CUSTKEY", np.arange(5))
        with pytest.raises(PlanError):
            IndexScan(
                ExecutionContext(),
                orders_row,
                short_index,
                Predicate("O_CUSTKEY", ComparisonOp.LE, 3),
                ("O_CUSTKEY",),
            )


class TestAccessPathModel:
    def test_sequential_scan_at_bandwidth(self):
        seconds = sequential_scan_seconds(1_800_000_000)
        assert seconds == pytest.approx(10.0)

    def test_paper_breakeven_figure(self):
        """§2.1.1: 5 ms seek, 300 MB/s, 128-byte tuples → ~0.008%."""
        calibration = DEFAULT_CALIBRATION.with_overrides(
            seek_seconds=5e-3,
            disk_bandwidth_bytes=100_000_000,
            num_disks=3,
        )
        breakeven = breakeven_selectivity(128.0, calibration)
        assert breakeven == pytest.approx(8.5e-5, rel=0.05)

    def test_exact_rid_costing(self):
        calibration = DEFAULT_CALIBRATION
        # Three widely separated tuples: 3 pages, 3 seeks.
        seconds, pages, seeks = index_scan_seconds_for_rids(
            np.array([0, 100_000, 200_000]), 26, 4096, calibration
        )
        assert pages == 3
        assert seeks == 3
        assert seconds == pytest.approx(
            3 * 4096 / calibration.total_disk_bandwidth
            + 3 * calibration.seek_seconds
        )

    def test_adjacent_pages_share_a_seek(self):
        # Tuples on consecutive pages: one positioning seek only.
        seconds, pages, seeks = index_scan_seconds_for_rids(
            np.array([0, 26, 52]), 26, 4096
        )
        assert pages == 3
        assert seeks == 1

    def test_unsorted_rids_rejected(self):
        with pytest.raises(SimulationError):
            index_scan_seconds_for_rids(np.array([5, 1]), 26, 4096)

    def test_expected_model_monotone_in_matches(self):
        times = [
            index_scan_seconds(n, 60_000_000, 26, 4096)[0]
            for n in (10, 100, 1_000, 10_000)
        ]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_winner_flips_with_selectivity(self):
        low = compare_access_paths(100, 60_000_000, 26, 4096)
        high = compare_access_paths(600_000, 60_000_000, 26, 4096)
        assert low.index_wins
        assert not high.index_wins

    def test_zero_matches(self):
        seconds, pages, seeks = index_scan_seconds(0, 1_000, 26, 4096)
        assert (seconds, pages, seeks) == (0.0, 0, 0)


class TestIndexEdgeCases:
    """Boundary behaviour: empty tables, degenerate predicates, break-even."""

    def test_empty_table_has_no_index_path(self):
        # An empty column cannot be indexed, and the cost model rejects
        # zero-row tables too: the only access path is the (trivial)
        # sequential scan.
        with pytest.raises(PlanError):
            SecondaryIndex("A", np.zeros(0, dtype=np.int64))
        with pytest.raises(SimulationError):
            index_scan_seconds(1, 0, 26, 4096)

    def test_zero_match_predicate(self, orders_data, orders_row, custkey_index):
        # A constant below the whole domain qualifies nothing: the index
        # scan must produce a well-typed empty result identical to the
        # table scanner's.
        floor = int(orders_data.column("O_CUSTKEY").min()) - 1
        predicate = Predicate("O_CUSTKEY", ComparisonOp.LT, floor)
        select = ("O_CUSTKEY", "O_TOTALPRICE")
        scan = IndexScan(
            ExecutionContext(), orders_row, custkey_index, predicate, select
        )
        result = execute_plan(scan)
        expected = run_scan(orders_row, ScanQuery("ORDERS", select, (predicate,)))
        assert result.num_tuples == expected.num_tuples == 0
        assert result.positions.size == 0
        for name in select:
            assert result.column(name).dtype == expected.column(name).dtype
        assert scan.events.pages_touched == 0

    def test_all_match_predicate(self, orders_data, orders_row, custkey_index):
        # A constant above the whole domain qualifies everything: both
        # paths return every tuple in Record-ID order.
        ceiling = int(orders_data.column("O_CUSTKEY").max()) + 1
        predicate = Predicate("O_CUSTKEY", ComparisonOp.LT, ceiling)
        select = ("O_CUSTKEY",)
        scan = IndexScan(
            ExecutionContext(), orders_row, custkey_index, predicate, select
        )
        result = execute_plan(scan)
        expected = run_scan(orders_row, ScanQuery("ORDERS", select, (predicate,)))
        assert result.num_tuples == orders_data.num_rows
        np.testing.assert_array_equal(result.positions, expected.positions)
        np.testing.assert_array_equal(
            result.column("O_CUSTKEY"), expected.column("O_CUSTKEY")
        )

    def test_breakeven_boundary_single_flip(self):
        # As the match count grows, the winner flips from index to
        # sequential exactly once and never flips back.
        num_rows, per_page, page_size = 10_000_000, 26, 4096
        grid = [int(10**e) for e in np.arange(0, 7, 0.25)]
        winners = [
            compare_access_paths(n, num_rows, per_page, page_size).index_wins
            for n in grid
        ]
        assert winners[0] and not winners[-1]
        flips = sum(a != b for a, b in zip(winners, winners[1:]))
        assert flips == 1

    def test_breakeven_boundary_is_tight(self):
        # Bisect the flip point; one match either side must land within
        # a whisker of cost parity (the model is continuous there).
        num_rows, per_page, page_size = 10_000_000, 26, 4096
        lo, hi = 1, num_rows
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if compare_access_paths(mid, num_rows, per_page, page_size).index_wins:
                lo = mid
            else:
                hi = mid
        below = compare_access_paths(lo, num_rows, per_page, page_size)
        above = compare_access_paths(hi, num_rows, per_page, page_size)
        assert below.index_wins and not above.index_wins
        assert below.index_seconds <= below.sequential_seconds
        assert above.index_seconds >= above.sequential_seconds
        gap = abs(below.index_seconds - below.sequential_seconds)
        assert gap / below.sequential_seconds < 0.01

    def test_breakeven_closed_form_scales_with_width(self):
        # Wider tuples raise the break-even selectivity linearly.
        assert breakeven_selectivity(256) == pytest.approx(
            2 * breakeven_selectivity(128)
        )
