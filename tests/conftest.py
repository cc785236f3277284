"""Shared fixtures: small generated tables in both layouts, and one run
of each registered experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import (
    apply_fig5_compression,
    generate_lineitem,
    generate_orders,
)
from repro.experiments.figures import ALL_EXPERIMENTS
from repro.obs import metrics
from repro.storage.layout import Layout
from repro.storage.loader import load_table

SMALL_ROWS = 1_500

#: Rows each registered experiment executes on in a test session.
EXPERIMENT_ROWS = 1_200


def zero_metrics() -> None:
    """Zero every series of the process-wide registry (registrations are
    kept), so a test reads only what it caused."""
    for series in metrics.REGISTRY._metrics.values():
        series.reset()


def pytest_addoption(parser):
    parser.addoption(
        "--run-fuzz",
        action="store_true",
        default=False,
        help="run the deep differential-fuzz suite (tests marked 'fuzz')",
    )
    parser.addoption(
        "--run-chaos",
        action="store_true",
        default=False,
        help="run the deep chaos sweep (tests marked 'chaos')",
    )


def pytest_collection_modifyitems(config, items):
    skips = {}
    if not config.getoption("--run-fuzz"):
        skips["fuzz"] = pytest.mark.skip(
            reason="deep fuzz run; use --run-fuzz (or make fuzz)"
        )
    if not config.getoption("--run-chaos"):
        skips["chaos"] = pytest.mark.skip(
            reason="deep chaos run; use --run-chaos (or make chaos-deep)"
        )
    for item in items:
        for marker_name, skip in skips.items():
            if marker_name in item.keywords:
                item.add_marker(skip)


class _ExperimentRuns(dict):
    """Experiment name -> its output at :data:`EXPERIMENT_ROWS`, run on
    first lookup and kept."""

    def __missing__(self, name: str):
        output = self[name] = ALL_EXPERIMENTS[name](num_rows=EXPERIMENT_ROWS)
        return output


@pytest.fixture(scope="session")
def experiment_runs():
    """One run of each registered experiment per session: the structural
    checks and every paper-shape assertion read it."""
    return _ExperimentRuns()


@pytest.fixture(scope="session")
def lineitem_data():
    return generate_lineitem(SMALL_ROWS, seed=101)


@pytest.fixture(scope="session")
def orders_data():
    return generate_orders(SMALL_ROWS, seed=101)


@pytest.fixture(scope="session")
def lineitem_z_data(lineitem_data):
    return apply_fig5_compression(lineitem_data)


@pytest.fixture(scope="session")
def orders_z_data(orders_data):
    return apply_fig5_compression(orders_data)


@pytest.fixture(scope="session")
def lineitem_row(lineitem_data):
    return load_table(lineitem_data, Layout.ROW)


@pytest.fixture(scope="session")
def lineitem_column(lineitem_data):
    return load_table(lineitem_data, Layout.COLUMN)


@pytest.fixture(scope="session")
def orders_row(orders_data):
    return load_table(orders_data, Layout.ROW)


@pytest.fixture(scope="session")
def orders_column(orders_data):
    return load_table(orders_data, Layout.COLUMN)


@pytest.fixture(scope="session")
def orders_z_column(orders_z_data):
    return load_table(orders_z_data, Layout.COLUMN)


@pytest.fixture(scope="session")
def orders_z_row(orders_z_data):
    return load_table(orders_z_data, Layout.ROW)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
