"""Crash-safe merge: every fault point leaves exactly old-or-new on disk.

``merge_into_directory`` rebuilds the table into a fresh versioned
directory and commits by durably flipping the ``CURRENT`` manifest.
This matrix kills the merge at every declared fault point and asserts
the atomicity contract after each crash:

* reopening through ``open_current`` yields **exactly** the old or the
  new table — old before the manifest flip, new after — never a blend;
* a full scrub of the reopened table is clean (no torn pages);
* exactly one flight-recorder black box is captured per induced
  failure;
* a retry from recovered state (fresh store, reopened table) succeeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.errors import StorageError
from repro.obs import recorder as flight
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.persist import save_table
from repro.storage.scrub import scrub_table
from repro.storage.write_store import (
    MERGE_FAULT_POINTS,
    WriteOptimizedStore,
    _flip_current,
    merge_into_directory,
    open_current,
    read_current_version,
)

ROWS = 120


class InducedCrash(Exception):
    """Simulates the process dying at a fault point."""


@pytest.fixture()
def seeded_root(tmp_path):
    data = generate_orders(ROWS, seed=9)
    table = load_table(data, Layout.COLUMN)
    save_table(table, tmp_path / "v0000")
    _flip_current(tmp_path, "v0000")
    return tmp_path, data, table


def _staged_rows(data, count=2):
    return [
        tuple(data.columns[a.name][index] for a in data.schema)
        for index in range(count)
    ]


def _dirty_store(table, data):
    store = WriteOptimizedStore(table.schema)
    store.attach_base(table.num_rows)
    store.insert_many(_staged_rows(data))
    store.delete([0, 3, ROWS])  # two base rows and one staged row
    return store


@pytest.mark.parametrize("point", MERGE_FAULT_POINTS)
def test_crash_leaves_exactly_old_or_new(seeded_root, point):
    root, data, _ = seeded_root
    table = open_current(root)
    store = _dirty_store(table, data)
    expected_new = run_scan(
        store.rebuild(table), ScanQuery(table.schema.name, select=("O_ORDERKEY",))
    )
    before_version = read_current_version(root)
    # The black-box deque is bounded: after a deep chaos sweep has
    # filled it, one more dump no longer grows its length.
    flight.RECORDER.clear()

    def hook(where):
        if where == point:
            raise InducedCrash(where)

    with pytest.raises(InducedCrash):
        merge_into_directory(store, table, root, crash_hook=hook)

    # Exactly one black box per induced failure.
    assert len(flight.RECORDER.blackboxes) == 1

    # Reopen as a recovering process would: strictly old-or-new.
    after_version = read_current_version(root)
    after = open_current(root)
    committed = point == "current.written"  # hook fires after the flip
    if committed:
        assert after_version != before_version
        assert after.num_rows == ROWS + 2 - 3
        result = run_scan(after, ScanQuery(after.schema.name, select=("O_ORDERKEY",)))
        np.testing.assert_array_equal(
            result.columns["O_ORDERKEY"], expected_new.columns["O_ORDERKEY"]
        )
    else:
        assert after_version == before_version
        assert after.num_rows == ROWS
        result = run_scan(after, ScanQuery(after.schema.name, select=("O_ORDERKEY",)))
        np.testing.assert_array_equal(
            result.columns["O_ORDERKEY"], data.columns["O_ORDERKEY"]
        )

    # Scrub the reopened table: no torn pages at any crash point.
    report = scrub_table(after)
    assert report.is_clean, report.summary()

    # Recovery: a fresh store against the reopened table merges fine.
    retry = _dirty_store(after, data) if not committed else None
    if retry is not None:
        new_table, path = merge_into_directory(retry, after, root)
        assert read_current_version(root) == path.name
        assert scrub_table(open_current(root)).is_clean


def test_commit_point_crash_keeps_surviving_store_consistent(seeded_root):
    """A crash AFTER the flip resets the in-process store to the new base.

    The exception still propagates (callers see the failure), but a
    surviving process must not retry a merge that already committed.
    """
    root, data, _ = seeded_root
    table = open_current(root)
    store = _dirty_store(table, data)

    def hook(where):
        if where == "current.written":
            raise InducedCrash(where)

    with pytest.raises(InducedCrash):
        merge_into_directory(store, table, root, crash_hook=hook)
    new_rows = ROWS + 2 - 3
    assert store.base_rows == new_rows
    assert not store.has_changes
    assert not store.merging


def test_merge_into_directory_success_path(seeded_root):
    root, data, _ = seeded_root
    table = open_current(root)
    store = _dirty_store(table, data)
    new_table, path = merge_into_directory(store, table, root)
    assert read_current_version(root) == path.name == "v0001"
    assert new_table.num_rows == ROWS + 2 - 3
    assert scrub_table(open_current(root)).is_clean
    # The superseded version directory was garbage-collected.
    assert not (root / "v0000").exists()
    # The store drained and re-attached to the new base.
    assert store.base_rows == new_table.num_rows
    assert not store.has_changes


def test_version_sequence_advances_across_merges(seeded_root):
    root, data, _ = seeded_root
    for expected in ("v0001", "v0002", "v0003"):
        table = open_current(root)
        store = WriteOptimizedStore(table.schema)
        store.attach_base(table.num_rows)
        store.insert_many(_staged_rows(data, count=1))
        _, path = merge_into_directory(store, table, root)
        assert path.name == expected
    assert open_current(root).num_rows == ROWS + 3


def test_open_current_requires_manifest(tmp_path):
    with pytest.raises(StorageError, match="CURRENT"):
        open_current(tmp_path)
    assert read_current_version(tmp_path) is None


def test_current_manifest_rejects_garbage(tmp_path):
    (tmp_path / "CURRENT").write_text("../evil\n")
    with pytest.raises(StorageError):
        read_current_version(tmp_path)
