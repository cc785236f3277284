"""Measurement-runner and config tests."""

import pytest

from repro.engine.query import AggregateFunction, AggregateSpec, Query, ScanQuery
from repro.experiments.config import CompetingTraffic, ExperimentConfig
from repro.experiments.report import ExperimentOutput, FigureResult, format_table
from repro.experiments.runner import measure_scan
from repro.experiments.workloads import prepare_orders
from repro.storage.layout import Layout


@pytest.fixture(scope="module")
def prepared():
    return prepare_orders(1_500, seed=33)


def make_query(prepared, k=3, selectivity=0.10):
    predicate = prepared.predicate("O_ORDERDATE", selectivity)
    return ScanQuery(
        "ORDERS", select=prepared.attrs_prefix(k), predicates=(predicate,)
    )


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.cardinality == 60_000_000
        assert config.effective_prefetch_depth == 48

    def test_with_overrides(self):
        config = ExperimentConfig().with_(prefetch_depth=8)
        assert config.effective_prefetch_depth == 8

    def test_competing_validation(self):
        with pytest.raises(Exception):
            CompetingTraffic(file_bytes=0)


class TestMeasureScan:
    def test_row_measurement_matches_paper_io(self, prepared):
        m = measure_scan(prepared.row, make_query(prepared))
        # ORDERS at 60M rows is ~1.9GB over 180MB/s: ~10.8s, I/O-bound.
        assert m.layout is Layout.ROW
        assert m.io_bound
        assert m.elapsed == pytest.approx(10.8, rel=0.05)
        assert m.bytes_read == pytest.approx(1.9e9, rel=0.05)

    def test_column_reads_only_selected_files(self, prepared):
        m = measure_scan(prepared.column, make_query(prepared, k=2))
        # Two four-byte columns out of 32 bytes: ~1/4 GB.
        assert m.bytes_read < 0.6e9
        assert m.elapsed < 5

    def test_events_scaled_to_cardinality(self, prepared):
        config = ExperimentConfig(cardinality=60_000_000)
        m = measure_scan(prepared.row, make_query(prepared), config)
        assert m.events.tuples_examined == 60_000_000

    def test_cardinality_override(self, prepared):
        small = ExperimentConfig(cardinality=6_000_000)
        big = ExperimentConfig(cardinality=60_000_000)
        a = measure_scan(prepared.row, make_query(prepared), small)
        b = measure_scan(prepared.row, make_query(prepared), big)
        assert b.elapsed == pytest.approx(10 * a.elapsed, rel=0.05)

    def test_competing_traffic_slows_scan(self, prepared):
        quiet = measure_scan(prepared.column, make_query(prepared))
        busy = measure_scan(
            prepared.column,
            make_query(prepared),
            ExperimentConfig(competing=CompetingTraffic(file_bytes=10**10)),
        )
        assert busy.io_elapsed > quiet.io_elapsed

    def test_slow_column_variant_is_slower_under_competition(self, prepared):
        config = ExperimentConfig(competing=CompetingTraffic(file_bytes=10**10))
        fast = measure_scan(prepared.column, make_query(prepared, k=7), config)
        slow = measure_scan(
            prepared.column,
            make_query(prepared, k=7),
            config.with_(slow_column_io=True),
        )
        assert slow.elapsed > fast.elapsed

    def test_cpu_bound_detection(self, prepared):
        # Compressed columns at high selectivity turn CPU-bound.
        packed = prepare_orders(1_500, seed=33, compressed=True)
        query = ScanQuery(
            packed.schema.name,
            select=packed.attrs_prefix(7),
            predicates=(packed.predicate("O_ORDERDATE", 0.10),),
        )
        m = measure_scan(packed.column, query)
        assert not m.io_bound
        assert m.elapsed == pytest.approx(m.cpu.total)

    def test_a_query_adds_operator_cost_above_the_same_scan(self, prepared):
        scan = make_query(prepared)
        plain = measure_scan(prepared.column, scan)
        assert measure_scan(prepared.column, Query(scan)) == plain
        spec = AggregateSpec((scan.select[1],), AggregateFunction.COUNT, None)
        stacked = measure_scan(prepared.column, Query(scan, aggregate=spec))
        assert stacked.events.agg_updates > 0 == plain.events.agg_updates
        assert stacked.cpu.total > plain.cpu.total
        assert stacked.io_elapsed == plain.io_elapsed
        assert stacked.bytes_read == plain.bytes_read


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bee"], [[1, 2.5], [300, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.50" in text

    def test_figure_result_validates_row_width(self):
        figure = FigureResult(title="t", headers=["a", "b"])
        with pytest.raises(ValueError):
            figure.add_row(1)

    def test_figure_result_column(self):
        figure = FigureResult(title="t", headers=["a", "b"])
        figure.add_row(1, 2)
        figure.add_row(3, 4)
        assert figure.column("b") == [2, 4]

    def test_experiment_output_lookup(self):
        figure = FigureResult(title="t", headers=["a"])
        output = ExperimentOutput(name="x", tables=[figure])
        assert output.table("t") is figure
        with pytest.raises(KeyError):
            output.table("missing")
        assert "=== x ===" in output.render()
