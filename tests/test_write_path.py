"""Hybrid base+delta read path: differential equivalence and lifecycle.

The tentpole contract: a table with staged inserts and a populated
delete vector answers every query **byte-identically** to a freshly
rebuilt table, through every scanner architecture, the partitioned
parallel executor at several worker counts, and the cooperative
scheduler with shared scans on and off.  On top sit the write
lifecycle pieces: write memory budgets, merge under governance,
stable sort-key reclustering, background (incremental) merge through
the scheduler, and the write-store telemetry surface.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.executor import run_scan
from repro.engine.governance import QueryContext
from repro.engine.hybrid import build_overlay
from repro.engine.plan import ColumnScannerKind
from repro.engine.query import ScanQuery
from repro.errors import (
    GovernanceError,
    MemoryBudgetExceeded,
    PlanError,
    SchemaError,
    StorageError,
)
from repro.storage.layout import Layout
from repro.storage.write_store import WriteOptimizedStore
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema
from repro.data.generator import GeneratedTable

ROWS = 240
SELECT = ("O_ORDERKEY", "O_TOTALPRICE", "O_ORDERDATE")

ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)


def _dirty_database(layout: Layout, sort_key: str | None = None) -> tuple:
    """A Database with staged inserts and deletes on both legs."""
    data = generate_orders(ROWS, seed=11)
    db = Database(layouts=(layout,))
    db.create_table(data, sort_key=sort_key)
    name = data.schema.name
    staged = [
        tuple(data.columns[a.name][index] for a in data.schema)
        for index in (3, 7, 7, 11)
    ]
    db.insert_many(name, staged)
    # Base deletes, a staged delete, and a re-delete (idempotent).
    db.delete(name, positions=[0, 5, ROWS - 1, ROWS + 1, 5])
    return db, data, name


def _assert_same(result, expected) -> None:
    np.testing.assert_array_equal(result.positions, expected.positions)
    assert set(result.columns) == set(expected.columns)
    for attr, column in expected.columns.items():
        np.testing.assert_array_equal(result.columns[attr], column)


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
def test_hybrid_equals_rebuilt_serial(arch, layout, scanner):
    db, data, name = _dirty_database(layout)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.6)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, query, column_scanner=scanner)
    result = db.query(
        name, select=SELECT, predicates=(predicate,), column_scanner=scanner
    )
    _assert_same(result, expected)


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_hybrid_equals_rebuilt_parallel(arch, layout, scanner, workers):
    """Partitioned parallel scan + post-hoc overlay == rebuilt table.

    Drives :func:`repro.engine.parallel.parallel_query` directly (the
    Database clamps ``workers`` to ``os.cpu_count()``, which can be 1
    on CI runners) with the overlay snapshotted before the fan-out —
    the exact transform ``Database.query`` applies.
    """
    from repro.engine.parallel import parallel_query

    db, data, name = _dirty_database(layout)
    store = db.write_store(name)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = store.rebuild(db.table(name))
    expected = run_scan(rebuilt, query, column_scanner=scanner)
    overlay = build_overlay(store, query)
    result = overlay.apply(
        parallel_query(
            db.table(name),
            query,
            workers=workers,
            partitions=workers,
            column_scanner=scanner,
        )
    )
    _assert_same(result, expected)
    # The facade route (clamped workers) must agree as well.
    _assert_same(
        db.query(
            name,
            select=SELECT,
            predicates=(predicate,),
            workers=workers,
            column_scanner=scanner,
        ),
        expected,
    )


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
@pytest.mark.parametrize("sharing", [False, True])
def test_hybrid_equals_rebuilt_scheduler(arch, layout, scanner, sharing):
    db, data, name = _dirty_database(layout)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.4)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, query)
    handles = db.run_workload(
        [
            dict(table=name, select=SELECT, predicates=(predicate,)),
            dict(table=name, select=SELECT, predicates=(predicate,)),
        ],
        share_scans=sharing,
        column_scanner=scanner,
    )
    for handle in handles:
        assert handle.error is None
        _assert_same(handle.result, expected)


def test_hybrid_positions_are_remapped_not_global():
    """Positions must address the rebuilt table, not the base snapshot."""
    db, data, name = _dirty_database(Layout.COLUMN)
    result = db.query(name, select=("O_ORDERKEY",))
    # Deleted base rows 0 and 5: the first surviving row is global row 1
    # but rebuilt position 0, and positions are dense [0, live).
    live = ROWS + 4 - 4  # base + staged - deleted
    assert result.positions.tolist() == list(range(live))


def test_unfiltered_hybrid_row_content():
    db, data, name = _dirty_database(Layout.COLUMN)
    result = db.query(name, select=("O_ORDERKEY",))
    keys = data.columns["O_ORDERKEY"]
    expected = [
        int(keys[i]) for i in range(ROWS) if i not in (0, 5, ROWS - 1)
    ] + [int(keys[3]), int(keys[7]), int(keys[11])]
    assert result.columns["O_ORDERKEY"].tolist() == expected


def test_views_bypassed_while_dirty_and_rebuilt_after_merge():
    data = generate_orders(ROWS, seed=11)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data)
    name = data.schema.name
    view = db.create_view(name, ("O_ORDERKEY", "O_TOTALPRICE"))
    assert view.table.num_rows == ROWS
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)
    # Dirty: the query answers from the hybrid path, seeing the insert.
    result = db.query(name, select=("O_ORDERKEY",))
    assert len(result.positions) == ROWS + 1
    db.merge(name)
    # Views were re-materialized against the merged base.
    entry_view = db._entry(name).router.views[0]
    assert entry_view.table.num_rows == ROWS + 1
    result = db.query(name, select=("O_ORDERKEY",))
    assert len(result.positions) == ROWS + 1


def test_merge_stable_sort_keeps_insertion_order_for_duplicate_keys():
    """Satellite: duplicate sort keys preserve insertion order (stable)."""
    schema = TableSchema(
        "S",
        attributes=(Attribute("k", IntType()), Attribute("v", IntType())),
    )
    data = GeneratedTable(
        schema=schema,
        columns={
            "k": np.array([2, 1, 2, 1], dtype=np.int64),
            "v": np.array([10, 11, 12, 13], dtype=np.int64),
        },
    )
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data, sort_key="k")
    # Stage duplicates of both keys; they must land AFTER the base rows
    # with equal keys, in insertion order.
    db.insert_many("S", [(1, 20), (2, 21), (1, 22)])
    db.merge("S")
    result = db.query("S", select=("k", "v"))
    assert result.columns["k"].tolist() == [1, 1, 1, 1, 2, 2, 2]
    assert result.columns["v"].tolist() == [11, 13, 20, 22, 10, 12, 21]
    # A second merge with no changes is a stable no-op.
    db.insert("S", (1, 30))
    db.merge("S")
    result = db.query("S", select=("v",), predicates=())
    assert result.columns["v"].tolist() == [11, 13, 20, 22, 30, 10, 12, 21]


def test_write_budget_enforced_and_drained_by_merge():
    data = generate_orders(20, seed=3)
    row_bytes = sum(a.attr_type.width for a in data.schema)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data, write_budget=row_bytes * 2)
    name = data.schema.name
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)
    db.insert(name, row)
    with pytest.raises(MemoryBudgetExceeded):
        db.insert(name, row)
    db.merge(name)
    db.insert(name, row)  # budget drained by the merge
    assert len(db.write_store(name)) == 1


def test_writes_frozen_during_merge():
    data = generate_orders(20, seed=3)
    store = WriteOptimizedStore(data.schema)
    store.attach_base(data.num_rows)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    store.insert(row)
    store.begin_merge()
    with pytest.raises(StorageError, match="merge"):
        store.insert(row)
    with pytest.raises(StorageError, match="merge"):
        store.delete([0])
    store.end_merge()
    store.insert(row)
    assert len(store) == 2


def test_insert_arity_checked():
    data = generate_orders(10, seed=3)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data)
    with pytest.raises(SchemaError):
        db.insert(data.schema.name, (1, 2))


def test_delete_rejects_predicates_plus_positions():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    with pytest.raises(PlanError):
        db.delete(name, predicates=(predicate,), positions=[1])


def test_predicate_delete_covers_base_and_staged():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    db.delete(name, predicates=(predicate,))
    result = db.query(name, select=SELECT, predicates=(predicate,))
    assert result.num_tuples == 0
    # The complement population is untouched and still byte-identical
    # to the rebuilt table.
    rebuilt = db.write_store(name).rebuild(db.table(name))
    _assert_same(
        db.query(name, select=SELECT),
        run_scan(rebuilt, ScanQuery(name, select=SELECT)),
    )


def test_merge_under_governance_deadline_aborts_typed():
    db, data, name = _dirty_database(Layout.COLUMN)
    store = db.write_store(name)
    governance = QueryContext.start(timeout=0.0, label="doomed merge")
    with pytest.raises(GovernanceError):
        store.rebuild(db.table(name), governance=governance)
    # The store is writable again after the typed abort.
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)


def test_background_merge_snapshot_semantics():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(
        rebuilt, ScanQuery(name, select=SELECT, predicates=(predicate,))
    )
    # Submit a query BEFORE the merge: its overlay snapshots the
    # pre-merge state, so it must answer identically no matter how far
    # the merge has progressed when it runs.
    before = db.submit(name, select=SELECT, predicates=(predicate,))
    job = db.merge(name, background=True)
    while db.scheduler.poll():
        pass
    assert job.done and not job.failed
    assert job.result == ROWS + 4 - 4
    _assert_same(before.result, expected)
    # Writes unfroze and the store drained.
    assert not db.write_store(name).has_changes
    assert db.write_store(name).base_rows == job.result
    # A query after the merge sees the merged base directly.
    _assert_same(
        db.query(name, select=SELECT, predicates=(predicate,)), expected
    )
    # The job shows up on the scheduler board.
    jobs = db.scheduler.board()["jobs"]
    assert any(j["done"] and not j["failed"] for j in jobs)


def test_background_merge_failure_unfreezes_and_reports():
    db, data, name = _dirty_database(Layout.COLUMN)
    entry = db._entry(name)
    # Sabotage the catalog so the rebuild step raises a typed error.
    entry.data = GeneratedTable(
        schema=entry.data.schema,
        columns={k: v[:-1] for k, v in entry.data.columns.items()},
    )
    job = db.merge(name, background=True)
    while db.scheduler.poll():
        pass
    assert job.done and job.failed
    assert not db.write_store(name).merging  # unfrozen on abort


def test_write_board_and_metrics_surface():
    from repro.obs import metrics as obs_metrics

    db, data, name = _dirty_database(Layout.COLUMN)
    board = db.write_board()
    assert board[name]["staged"] == 4
    assert board[name]["deleted"] == 4
    assert board[name]["base_rows"] == ROWS
    assert board[name]["staged_bytes"] > 0
    assert not board[name]["merging"]
    rendered = obs_metrics.REGISTRY.render()
    assert "repro_write_staged_rows_total" in rendered
    db.merge(name)
    board = db.write_board()
    assert board[name]["staged"] == 0 and board[name]["deleted"] == 0


def test_dashboard_renders_write_panel():
    from repro.obs.dashboard import render_board, render_html

    db, data, name = _dirty_database(Layout.COLUMN)
    text = render_board(write_board=db.write_board())
    assert "write stores" in text
    assert name in text
    html = render_html(write_board=db.write_board())
    assert "write stores" in html


def test_flight_recorder_sees_write_lifecycle():
    from repro.obs import recorder as flight

    db, data, name = _dirty_database(Layout.COLUMN)
    db.merge(name)
    kinds = [event.kind for event in flight.RECORDER.events()]
    for kind in (
        "write.stage",
        "write.delete",
        "write.merge.begin",
        "write.merge.commit",
    ):
        assert kind in kinds


def _direct_results(db, name, query, scanner, workers) -> dict:
    """Each executor run directly on the untouched base table."""
    from repro.engine.parallel import parallel_query
    from repro.engine.scheduler import Scheduler

    base = db.table(name)
    scheduled = Scheduler().submit(base, query).value()
    unshared = Scheduler(share_scans=False, column_scanner=scanner)
    workload = unshared.submit(base, query).value()
    return {
        "serial": run_scan(base, query, column_scanner=scanner),
        "parallel": (
            parallel_query(base, query, workers=workers)
            if workers > 1
            else run_scan(base, query)
        ),
        "submit": scheduled,
        "run_workload": workload,
    }


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
def test_dirty_query_identical_on_all_four_paths(arch, layout, scanner):
    """One pipeline: same rows on every entry point, base-plan cost only.

    The overlay is applied at the plan boundary and charges nothing, so
    on each path the ``CostEvents`` are those of the same executor run
    directly on the base table — and serial agrees with an unshared
    ``run_workload`` event for event.
    """
    db, data, name = _dirty_database(layout)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.6)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, query, column_scanner=scanner)
    args = dict(select=SELECT, predicates=(predicate,))
    results = {
        "serial": db.query(name, column_scanner=scanner, **args),
        "parallel": db.query(name, workers=2, **args),
        "submit": db.submit(name, **args).value(),
        "run_workload": db.run_workload(
            [dict(table=name, **args)], share_scans=False, column_scanner=scanner
        )[0].value(),
    }
    direct = _direct_results(db, name, query, scanner, min(2, os.cpu_count() or 1))
    for path, result in results.items():
        _assert_same(result, expected)
        assert result.events.as_dict() == direct[path].events.as_dict(), path
    assert (
        results["serial"].events.as_dict()
        == results["run_workload"].events.as_dict()
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_profile_and_explain_on_dirty_table(workers):
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.6)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    profile = db.profile(
        name, select=SELECT, predicates=(predicate,), workers=workers
    )
    _assert_same(profile.result, run_scan(rebuilt, query))
    assert (
        profile.tracer.total_events().as_dict() == profile.result.events.as_dict()
    )
    for text in (
        profile.explain_text(),
        db.explain(name, select=SELECT, predicates=(predicate,), workers=workers),
    ):
        assert "ColumnScanner" in text


def test_hybrid_query_metric_rises_once_per_dirty_query(monkeypatch):
    """Every entry point resolves — and builds its overlay — exactly once."""
    import repro.engine.hybrid as hybrid
    from repro.obs import metrics as obs_metrics

    db, data, name = _dirty_database(Layout.COLUMN)
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, ScanQuery(name, select=SELECT))
    built = []

    class CountingOverlay(hybrid.HybridOverlay):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hybrid, "HybridOverlay", CountingOverlay)

    paths = {
        "serial": lambda: db.query(name, select=SELECT),
        "parallel": lambda: db.query(name, select=SELECT, workers=2),
        "submit": lambda: db.submit(name, select=SELECT).value(),
        "run_workload": lambda: db.run_workload(
            [dict(table=name, select=SELECT)]
        )[0].value(),
        "profile": lambda: db.profile(name, select=SELECT).result,
    }
    for path, run in paths.items():
        before = obs_metrics.WRITE_HYBRID_QUERIES.value
        built.clear()
        _assert_same(run(), expected)
        assert obs_metrics.WRITE_HYBRID_QUERIES.value == before + 1, path
        assert len(built) == 1, path
    db.merge(name)
    before = obs_metrics.WRITE_HYBRID_QUERIES.value
    db.query(name, select=SELECT)
    assert obs_metrics.WRITE_HYBRID_QUERIES.value == before


def test_background_merge_counts_writes_landed_before_the_freeze():
    """Rows written between start_merge() and its first step are merged,
    so they must show in the merged/reclaimed counters and the begin event.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import recorder as flight

    db, data, name = _dirty_database(Layout.COLUMN)
    merged = obs_metrics.WRITE_MERGED_ROWS.value
    reclaimed = obs_metrics.WRITE_RECLAIMED_ROWS.value
    job = db.start_merge(name)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert_many(name, [row, row])
    db.delete(name, positions=[10])
    while db.scheduler.poll():
        pass
    assert job.done and not job.failed
    assert job.result == ROWS + 6 - 5
    assert obs_metrics.WRITE_MERGED_ROWS.value == merged + 6
    assert obs_metrics.WRITE_RECLAIMED_ROWS.value == reclaimed + 5
    begin = flight.RECORDER.events("write.merge.begin")[-1]
    assert (begin.detail["staged"], begin.detail["deleted"]) == (6, 5)


def test_foreground_and_background_merge_emit_the_same_lifecycle():
    from repro.obs import recorder as flight

    def lifecycle(background: bool) -> list:
        db, data, name = _dirty_database(Layout.COLUMN)
        flight.RECORDER.clear()
        job = db.merge(name, background=background)
        while background and db.scheduler.poll():
            pass
        assert job is None or job.result == ROWS
        assert not db.write_store(name).has_changes
        # ``seconds`` is the commit's measured wall time: the one key that
        # differs between two runs of the same merge.
        return [
            (event.kind, {k: v for k, v in event.detail.items() if k != "seconds"})
            for event in flight.RECORDER.events("write.merge")
        ]

    assert lifecycle(background=False) == lifecycle(background=True)


def test_iosim_merge_competition_model():
    from repro.iosim import measure_merge_competition

    measurement = measure_merge_competition(4 * 1024 * 1024)
    assert measurement.slowdown >= 1.0
    assert measurement.merge_stretch >= 1.0
    assert measurement.merge_solo_seconds > measurement.query_solo_seconds
    payload = measurement.as_dict()
    assert payload["slowdown"] == measurement.slowdown


# --- one merge protocol behind four doors -------------------------------------

DOORS = ("merge_into", "merge_into_directory", "Database.merge", "Database.start_merge")


def _merge_through(door: str, db, name: str, root) -> int:
    """Merge ``name``'s dirty store through one door; the merged row count."""
    from repro.storage.write_store import merge_into_directory

    store, table = db.write_store(name), db.table(name)
    if door == "merge_into":
        return store.merge_into(table).num_rows
    if door == "merge_into_directory":
        return merge_into_directory(store, table, root)[0].num_rows
    if door == "Database.merge":
        db.merge(name)
        return db.table(name).num_rows
    job = db.start_merge(name)
    while db.scheduler.poll():
        pass
    if job.error is not None:
        raise job.error
    return job.result


def _merge_telemetry() -> dict:
    from repro.obs import metrics as obs_metrics

    return {
        "merges": obs_metrics.WRITE_MERGES.value,
        "merged_rows": obs_metrics.WRITE_MERGED_ROWS.value,
        "reclaimed_rows": obs_metrics.WRITE_RECLAIMED_ROWS.value,
        "aborts": obs_metrics.WRITE_MERGE_ABORTS.value,
        "seconds_observed": obs_metrics.WRITE_MERGE_SECONDS.count,
    }


@pytest.mark.parametrize("fault", [False, True], ids=["commit", "abort"])
@pytest.mark.parametrize("door", DOORS)
def test_merge_protocol_is_the_same_through_every_door(
    door, fault, tmp_path, monkeypatch
):
    """Same input, same telemetry and same freeze whichever door merges it.

    Every door's install step loads through ``BulkLoader.load``, so a
    wrapper there stands mid-merge: writes and a second merge must be
    refused (typed, and the refusal emits nothing), and with ``fault``
    it fails the install — with an untyped error, which the background
    door must still land on its job handle.
    """
    from repro.obs import recorder as flight
    from repro.storage.loader import BulkLoader

    db, data, name = _dirty_database(Layout.COLUMN)
    store = db.write_store(name)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    real_load = BulkLoader.load
    probed = []

    def load_mid_merge(self, *args, **kwargs):
        emitted = len(flight.RECORDER.events()), len(flight.RECORDER.blackboxes)
        with pytest.raises(StorageError, match="merge is in flight"):
            store.insert(row)
        with pytest.raises(StorageError, match="merge is in flight"):
            store.delete([1])
        for second in ("merge_into", "Database.merge"):
            with pytest.raises(StorageError, match="already in flight"):
                _merge_through(second, db, name, tmp_path)
        assert emitted == (
            len(flight.RECORDER.events()),
            len(flight.RECORDER.blackboxes),
        )
        probed.append(store.merging)
        if fault:
            raise ValueError("injected install fault")
        return real_load(self, *args, **kwargs)

    monkeypatch.setattr(BulkLoader, "load", load_mid_merge)
    flight.RECORDER.clear()
    before = _merge_telemetry()
    if fault:
        with pytest.raises(Exception) as raised:
            _merge_through(door, db, name, tmp_path)
        root_cause = raised.value.__cause__ or raised.value
        assert isinstance(root_cause, ValueError)
    else:
        assert _merge_through(door, db, name, tmp_path) == ROWS
    assert probed and all(probed)
    delta = {key: value - before[key] for key, value in _merge_telemetry().items()}
    kinds = [event.kind for event in flight.RECORDER.events("write.merge")]
    begin = flight.RECORDER.events("write.merge.begin")[0]
    assert (begin.detail["staged"], begin.detail["deleted"]) == (4, 4)
    assert not store.merging
    if fault:
        assert kinds == ["write.merge.begin", "write.merge.abort"]
        assert delta == dict.fromkeys(before, 0) | {"aborts": 1}
        assert len(flight.RECORDER.blackboxes) == 1
        # Staging is intact: the merge can be retried.
        assert (len(store), store.deletes.count()) == (4, 4)
        assert store.base_rows == ROWS
    else:
        assert kinds == ["write.merge.begin", "write.merge.commit"]
        assert delta == {
            "merges": 1,
            "merged_rows": 4,
            "reclaimed_rows": 4,
            "aborts": 0,
            "seconds_observed": 1,
        }
        assert not flight.RECORDER.blackboxes
        assert not store.has_changes and store.base_rows == ROWS


# --- insert_many is all-or-nothing ---------------------------------------------


def test_refused_batch_stages_nothing():
    data = generate_orders(20, seed=3)
    row_bytes = sum(a.attr_type.width for a in data.schema)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data, write_budget=row_bytes * 4)
    name = data.schema.name
    store = db.write_store(name)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert_many(name, [row, row])

    def state():
        return len(store), store.total_rows, store.staged_bytes, len(store.deletes)

    before = state()
    with pytest.raises(SchemaError, match="tuple of 2 values"):
        db.insert_many(name, [row, row, (1, 2)])
    assert state() == before
    with pytest.raises(MemoryBudgetExceeded, match=f"inserting {row_bytes * 3} more"):
        db.insert_many(name, [row, row, row])
    assert state() == before
    db.insert_many(name, [row, row])  # exactly up to the budget
    assert len(store) == 4
    with pytest.raises(MemoryBudgetExceeded, match=f"inserting {row_bytes} more"):
        db.insert(name, row)


# --- one staged-row matcher ----------------------------------------------------


@pytest.mark.parametrize("num_predicates", [0, 1, 2])
def test_predicate_delete_removes_exactly_what_the_query_saw(num_predicates):
    """``delete(P)`` returns the count ``query(P)`` returned just before:
    the delete and the overlay match staged rows with one store method.
    """
    db, data, name = _dirty_database(Layout.COLUMN)
    # Stage the cheapest and the dearest order again, so staged rows
    # fall on both sides of a price predicate, as base rows do.
    price = data.columns["O_TOTALPRICE"]
    db.insert_many(
        name,
        [
            tuple(data.columns[a.name][index] for a in data.schema)
            for index in (int(price.argmin()), int(price.argmax()))
        ],
    )
    predicates = (
        db.predicate(name, "O_TOTALPRICE", 0.6),
        db.predicate(name, "O_ORDERDATE", 0.7),
    )[:num_predicates]
    seen = db.query(name, select=("O_ORDERKEY",), predicates=predicates)
    everything = db.query(name, select=("O_ORDERKEY",)).num_tuples
    live_base = ROWS - 3
    staged_seen = int((seen.positions >= live_base).sum())
    if num_predicates:
        assert 0 < staged_seen < everything - live_base
        assert 0 < seen.num_tuples - staged_seen < live_base
    else:
        assert seen.num_tuples == everything == live_base + 5
    assert db.delete(name, predicates=predicates) == seen.num_tuples
    assert db.query(name, select=("O_ORDERKEY",), predicates=predicates).num_tuples == 0
    assert (
        db.query(name, select=("O_ORDERKEY",)).num_tuples
        == everything - seen.num_tuples
    )
    # Deleting again matches the same rows and finds none of them live.
    assert db.delete(name, predicates=predicates) == 0
