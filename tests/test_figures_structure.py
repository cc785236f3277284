"""Structural checks over every registered experiment.

Every experiment must run at small scale, render, and produce
non-empty tables and numeric series — the catch-all that keeps a new
figure module honest.  Each reads the session's one run of its
experiment (``experiment_runs``, tests/conftest.py).
"""

import pytest

from repro.experiments.figures import ALL_EXPERIMENTS


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_produces_tables(experiment_runs, name):
    output = experiment_runs[name]
    assert output.tables, f"{name} produced no tables"
    for table in output.tables:
        assert table.rows, f"{name}: table {table.title!r} is empty"
        for row in table.rows:
            assert len(row) == len(table.headers)


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_renders(experiment_runs, name):
    text = experiment_runs[name].render()
    assert experiment_runs[name].name in text
    assert len(text.splitlines()) > 3


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_experiment_series_are_numeric(experiment_runs, name):
    output = experiment_runs[name]
    assert output.series, f"{name} exposes no series for assertions"
    for key, values in output.series.items():
        assert values, f"{name}: series {key!r} is empty"
        for value in values:
            assert isinstance(value, (int, float)), (name, key, value)


def test_experiment_names_are_kebab_case():
    for name in ALL_EXPERIMENTS:
        assert name == name.lower()
        assert " " not in name


class TestQueryResultHelpers:
    def test_rows_and_as_block(self, orders_data, orders_column):
        from repro.engine.executor import run_scan
        from repro.engine.query import ScanQuery

        result = run_scan(
            orders_column, ScanQuery("ORDERS", select=("O_ORDERKEY", "O_CUSTKEY"))
        )
        rows = result.rows()
        assert len(rows) == orders_data.num_rows
        assert rows[0] == (
            orders_data.column("O_ORDERKEY")[0],
            orders_data.column("O_CUSTKEY")[0],
        )
