"""measure_join and join-analysis experiment tests."""

import pytest

from repro.data.tpch import generate_tpch_pair
from repro.engine.query import ScanQuery
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import measure_join
from repro.storage.layout import Layout
from repro.storage.loader import load_table


@pytest.fixture(scope="module")
def join_setup():
    orders, lineitem = generate_tpch_pair(400, seed=31)
    return {
        "orders": orders,
        "lineitem": lineitem,
        "orders_row": load_table(orders, Layout.ROW),
        "orders_col": load_table(orders, Layout.COLUMN),
        "line_row": load_table(lineitem, Layout.ROW),
        "line_col": load_table(lineitem, Layout.COLUMN),
    }


def queries(lineitem, fact_attrs=("L_ORDERKEY", "L_EXTENDEDPRICE")):
    return (
        ScanQuery("ORDERS", select=("O_ORDERKEY", "O_ORDERPRIORITY")),
        ScanQuery("LINEITEM", select=tuple(fact_attrs)),
    )


class TestMeasureJoin:
    def test_join_produces_all_matches(self, join_setup):
        left_query, right_query = queries(join_setup["lineitem"])
        m = measure_join(
            join_setup["orders_col"],
            left_query,
            join_setup["line_col"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        assert m.result_tuples == join_setup["lineitem"].num_rows

    def test_right_cardinality_scales_by_ratio(self, join_setup):
        left_query, right_query = queries(join_setup["lineitem"])
        config = ExperimentConfig(cardinality=60_000_000)
        m = measure_join(
            join_setup["orders_row"],
            left_query,
            join_setup["line_row"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
            config=config,
        )
        ratio = join_setup["lineitem"].num_rows / join_setup["orders"].num_rows
        assert m.left_cardinality == 60_000_000
        assert m.right_cardinality == pytest.approx(60_000_000 * ratio, rel=1e-6)

    def test_row_join_reads_both_full_tables(self, join_setup):
        left_query, right_query = queries(join_setup["lineitem"])
        m = measure_join(
            join_setup["orders_row"],
            left_query,
            join_setup["line_row"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        # 1.9 GB of ORDERS + ~4x60M 152-byte LINEITEM rows.
        expected = 1.9e9 + m.right_cardinality * 152
        assert m.bytes_read == pytest.approx(expected, rel=0.05)

    def test_column_join_reads_less_for_narrow_projection(self, join_setup):
        left_query, right_query = queries(join_setup["lineitem"])
        row = measure_join(
            join_setup["orders_row"],
            left_query,
            join_setup["line_row"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        col = measure_join(
            join_setup["orders_col"],
            left_query,
            join_setup["line_col"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        assert col.bytes_read < row.bytes_read / 5
        assert col.elapsed < row.elapsed

    def test_join_events_include_comparisons(self, join_setup):
        left_query, right_query = queries(join_setup["lineitem"])
        m = measure_join(
            join_setup["orders_col"],
            left_query,
            join_setup["line_col"],
            right_query,
            left_key="O_ORDERKEY",
            right_key="L_ORDERKEY",
        )
        assert m.events.join_comparisons >= m.left_cardinality


class TestJoinAnalysisExperiment:
    def test_runs_and_validates_eq2(self, experiment_runs):
        out = experiment_runs["join-analysis"]
        predicted = out.series["eq2_predicted"][0]
        measured = out.series["eq2_measured"][0]
        assert abs(predicted - measured) / measured < 0.10
        assert out.series["speedup"][0] > out.series["speedup"][-1]
