"""Property tests for shared-scan attach/detach (circular scans).

A consumer may attach to a :class:`~repro.engine.sharing.
SharedScanStream` at *any* segment — it rides to the end of the pass,
wraps around, and detaches after one full circle.  These tests drive
the attach point over every segment (and seeded predicate variations)
on RLE-, dictionary-, and FOR-coded column pages, plus the degenerate
geometries (empty table, single-page table) and salvage-mode pages,
asserting the reassembled output is byte-identical to a cold serial
scan of the same query.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import weakref
import zlib

import numpy as np
import pytest

from repro.compression.base import CodecKind
from repro.compression.registry import build_codec_for_values
from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.generator import GeneratedTable
from repro.data.tpch import generate_orders, orders_schema
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.governance import QueryContext
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer, SharedScanStream
from repro.errors import ChecksumError, PlanError, ReproError
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.table import ColumnTable
from repro.testing.oracle import oracle_scan
from tests import scan_golden as golden

ROWS = 700


def _spec(kind: CodecKind, attr_type, values: np.ndarray):
    return build_codec_for_values(kind, attr_type, values, page_capacity_hint=256).spec


def _coded_orders(seed: int) -> GeneratedTable:
    """ORDERS data with RLE, dictionary, and FOR codecs assigned."""
    data = generate_orders(ROWS, seed=seed)
    schema = data.schema
    # Sort one column's values into runs so RLE has something to encode
    # (the codec requires nothing; the runs make the pages interesting).
    columns = dict(data.columns)
    columns["O_SHIPPRIORITY"] = np.sort(columns["O_SHIPPRIORITY"])
    specs = {
        "O_SHIPPRIORITY": _spec(
            CodecKind.RLE,
            schema.attribute("O_SHIPPRIORITY").attr_type,
            columns["O_SHIPPRIORITY"],
        ),
        "O_ORDERSTATUS": _spec(
            CodecKind.DICT,
            schema.attribute("O_ORDERSTATUS").attr_type,
            columns["O_ORDERSTATUS"],
        ),
        "O_TOTALPRICE": _spec(
            CodecKind.FOR,
            schema.attribute("O_TOTALPRICE").attr_type,
            columns["O_TOTALPRICE"],
        ),
    }
    return GeneratedTable(schema=schema.with_codecs(specs), columns=columns)


def _empty_orders() -> GeneratedTable:
    schema = orders_schema()
    columns = {
        attr.name: np.zeros(0, dtype=attr.attr_type.numpy_dtype())
        for attr in schema
    }
    return GeneratedTable(schema=schema, columns=columns)


def assert_identical(got, want) -> None:
    assert np.array_equal(got.positions, want.positions)
    assert got.positions.dtype == want.positions.dtype
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert np.array_equal(got.columns[name], want.columns[name]), name
        assert got.columns[name].dtype == want.columns[name].dtype, name


def _drain_consumer(consumer: SharedScanConsumer):
    from repro.engine.blocks import concat_blocks
    from repro.engine.executor import QueryResult

    blocks = consumer.drain()
    merged = concat_blocks(blocks)
    return QueryResult(
        columns=merged.columns,
        positions=merged.positions,
        events=consumer.context.events,
        corruption=consumer.context.corruption,
    )


def _advance_stream(stream: SharedScanStream, query: ScanQuery, steps: int) -> None:
    """Move the stream's cursor by pumping a throwaway rider."""
    if steps == 0:
        return
    pacer = SharedScanConsumer(ExecutionContext(), stream, query)
    pacer.open()
    for _ in range(steps):
        if not pacer.advance():
            break
    stream.detach(pacer)


QUERY = ScanQuery(
    "ORDERS", select=("O_ORDERKEY", "O_SHIPPRIORITY", "O_ORDERSTATUS", "O_TOTALPRICE")
)


class TestCircularAttach:
    """Every attach point must reassemble to the cold-scan answer."""

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN])
    def test_every_attach_page_matches_cold_scan(self, layout):
        data = _coded_orders(seed=11)
        table = load_table(data, layout)
        want = run_scan(load_table(data, layout), QUERY)
        probe = SharedScanStream(table, QUERY.scan_attributes(), True)
        for attach_at in range(probe.num_segments + 1):
            stream = SharedScanStream(table, QUERY.scan_attributes(), True)
            _advance_stream(stream, QUERY, attach_at)
            rider = SharedScanConsumer(ExecutionContext(), stream, QUERY)
            assert rider.attach_cursor == attach_at % max(stream.num_segments, 1)
            got = _drain_consumer(rider)
            assert_identical(got, want)

    def test_seeded_predicates_and_attach_points(self):
        """Seed-replayable sweep: random predicates x random attach."""
        data = _coded_orders(seed=23)
        table = load_table(data, Layout.COLUMN)
        for seed in range(25):
            rng = random.Random(f"scan-share-{seed}")
            attr = rng.choice(["O_SHIPPRIORITY", "O_TOTALPRICE", "O_ORDERKEY"])
            selectivity = rng.choice([0.05, 0.3, 0.7, 1.0])
            predicate = predicate_for_selectivity(
                attr, data.column(attr), selectivity
            )
            query = ScanQuery(
                "ORDERS",
                select=("O_ORDERKEY", "O_ORDERSTATUS", attr)
                if attr != "O_ORDERKEY"
                else ("O_ORDERKEY", "O_ORDERSTATUS"),
                predicates=(predicate,),
            )
            stream = SharedScanStream(table, query.scan_attributes(), True)
            _advance_stream(
                stream, query, rng.randrange(stream.num_segments + 1)
            )
            rider = SharedScanConsumer(ExecutionContext(), stream, query)
            got = _drain_consumer(rider)
            want = run_scan(load_table(data, Layout.COLUMN), query)
            assert_identical(got, want)
            oracle = oracle_scan(data, query)
            assert got.positions.tolist() == list(oracle.positions), f"seed {seed}"

    def test_two_riders_attached_at_different_points(self):
        """A mid-flight joiner and the original rider both get it all."""
        data = _coded_orders(seed=31)
        table = load_table(data, Layout.COLUMN)
        want = run_scan(load_table(data, Layout.COLUMN), QUERY)
        stream = SharedScanStream(table, QUERY.scan_attributes(), True)
        first = SharedScanConsumer(ExecutionContext(), stream, QUERY)
        first.open()
        # Ride the first consumer partway, then attach the second.
        for _ in range(stream.num_segments // 2):
            first.advance()
        second = SharedScanConsumer(ExecutionContext(), stream, QUERY)
        assert second.attach_cursor == stream.cursor
        got_second = _drain_consumer(second)
        # First finishes off deliveries it already received plus the rest.
        blocks = []
        while True:
            block = first.next()
            if block is None:
                break
            blocks.append(block)
        first.close()
        from repro.engine.blocks import concat_blocks

        merged = concat_blocks(blocks)
        assert_identical(merged, want.as_block())
        assert_identical(got_second, want)
        # Both detached after their single pass.
        assert stream.consumers == ()


class TestDegenerateGeometry:
    def test_empty_table(self):
        data = _empty_orders()
        for layout in (Layout.ROW, Layout.PAX, Layout.COLUMN):
            table = load_table(data, layout)
            stream = SharedScanStream(table, QUERY.scan_attributes(), True)
            assert stream.num_segments == 0
            rider = SharedScanConsumer(ExecutionContext(), stream, QUERY)
            got = _drain_consumer(rider)
            want = run_scan(load_table(data, layout), QUERY)
            assert_identical(got, want)
            assert got.num_tuples == 0
            assert list(got.columns) == list(QUERY.select)

    def test_single_page_table(self):
        data = generate_orders(40, seed=3)
        for layout in (Layout.ROW, Layout.PAX, Layout.COLUMN):
            table = load_table(data, layout)
            stream = SharedScanStream(table, QUERY.scan_attributes(), True)
            rider = SharedScanConsumer(ExecutionContext(), stream, QUERY)
            got = _drain_consumer(rider)
            assert_identical(got, run_scan(load_table(data, layout), QUERY))

    def test_missing_attribute_is_a_plan_error(self):
        data = generate_orders(40, seed=3)
        table = load_table(data, Layout.COLUMN)
        stream = SharedScanStream(table, ("O_ORDERKEY",), True)
        with pytest.raises(PlanError):
            SharedScanConsumer(ExecutionContext(), stream, QUERY)


def _corrupt_page(paged_file, page_index: int) -> None:
    offset = page_index * paged_file.page_size + 97
    paged_file._data[offset] ^= 0xFF


class TestSalvagePages:
    """Corrupt pages drop the same rows as a serial salvage scan."""

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN])
    def test_salvage_matches_serial_salvage(self, layout):
        data = _coded_orders(seed=47)
        table = load_table(data, layout)
        if isinstance(table, ColumnTable):
            victim = table.column_file("O_ORDERKEY").file
        else:
            victim = table.file
        _corrupt_page(victim, victim.num_pages // 2)
        want = run_scan(table, QUERY, salvage=True)
        assert not want.is_complete
        context = ExecutionContext(strict_integrity=False)
        stream = SharedScanStream(table, QUERY.scan_attributes(), False)
        rider = SharedScanConsumer(context, stream, QUERY)
        got = _drain_consumer(rider)
        assert_identical(got, want)
        assert not got.is_complete
        assert got.corruption.faults[0].page == victim.num_pages // 2

    def test_salvage_attach_points(self):
        """Wrap-around over a corrupt page from every attach offset."""
        data = _coded_orders(seed=53)
        table = load_table(data, Layout.COLUMN)
        victim = table.column_file("O_SHIPPRIORITY").file
        _corrupt_page(victim, 0)
        want = run_scan(table, QUERY, salvage=True)
        probe = SharedScanStream(table, QUERY.scan_attributes(), False)
        for attach_at in range(0, probe.num_segments + 1, 2):
            stream = SharedScanStream(table, QUERY.scan_attributes(), False)
            _advance_stream(stream, QUERY, attach_at)
            rider = SharedScanConsumer(
                ExecutionContext(strict_integrity=False), stream, QUERY
            )
            got = _drain_consumer(rider)
            assert_identical(got, want)

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.COLUMN])
    def test_unreadable_page_is_salvaged_like_a_serial_scan(self, layout):
        """A read that exhausts its retries is a lost page, not a dead stream."""
        data = _coded_orders(seed=67)

        def unreadable_table():
            table = load_table(data, layout)
            plan = FaultPlan(seed=1)
            plan.schedule_transient_reads(10_000, page=0)
            plan.wrap_table(table)
            return table

        want = run_scan(unreadable_table(), QUERY, salvage=True)
        assert not want.is_complete
        table = unreadable_table()
        stream = SharedScanStream(table, QUERY.scan_attributes(), False)
        rider = SharedScanConsumer(
            ExecutionContext(strict_integrity=False), stream, QUERY
        )
        got = _drain_consumer(rider)
        assert_identical(got, want)
        assert {f.page for f in got.corruption.faults} == {0}

    def test_strict_stream_fails_every_rider_typed(self):
        data = _coded_orders(seed=59)
        table = load_table(data, Layout.ROW)
        _corrupt_page(table.file, 0)
        stream = SharedScanStream(table, QUERY.scan_attributes(), True)
        first = SharedScanConsumer(ExecutionContext(), stream, QUERY)
        second = SharedScanConsumer(ExecutionContext(), stream, QUERY)
        first.open()
        with pytest.raises(ChecksumError):
            while first.advance():
                pass
        assert stream.failed is not None
        second.open()
        with pytest.raises(ChecksumError):
            second.next()


class TestShareManager:
    def test_hit_then_fresh_stream_after_pass(self):
        data = _coded_orders(seed=61)
        table = load_table(data, Layout.COLUMN)
        manager = ScanShareManager()
        context_a = ExecutionContext()
        a = manager.acquire(table, QUERY, context_a)
        b = manager.acquire(table, QUERY, ExecutionContext())
        assert a.share is b.share
        assert manager.hits == 1 and manager.misses == 1
        got_a = _drain_consumer(a)
        got_b = _drain_consumer(b)
        want = run_scan(load_table(data, Layout.COLUMN), QUERY)
        assert_identical(got_a, want)
        assert_identical(got_b, want)
        # Pass complete, all riders detached: next acquire starts fresh.
        c = manager.acquire(table, QUERY, ExecutionContext())
        assert c.share is not a.share
        assert manager.misses == 2
        # The I/O ledger keeps both streams' pages, each counted once.
        assert manager.io_pages() >= a.share.io_events.pages_touched

    def test_different_column_sets_do_not_share(self):
        data = _coded_orders(seed=67)
        table = load_table(data, Layout.COLUMN)
        manager = ScanShareManager()
        narrow = ScanQuery("ORDERS", select=("O_ORDERKEY",))
        a = manager.acquire(table, QUERY, ExecutionContext())
        b = manager.acquire(table, narrow, ExecutionContext())
        assert a.share is not b.share
        assert manager.hits == 0

    def test_io_accounted_once_for_two_riders(self):
        data = _coded_orders(seed=71)
        table = load_table(data, Layout.COLUMN)
        manager = ScanShareManager()
        a = manager.acquire(table, QUERY, ExecutionContext())
        b = manager.acquire(table, QUERY, ExecutionContext())
        _drain_consumer(a)
        _drain_consumer(b)
        shared_pages = manager.io_pages()
        solo = run_scan(load_table(data, Layout.COLUMN), QUERY)
        # Two riders, one stream: strictly less than two solo scans.
        assert shared_pages < 2 * solo.events.pages_touched

    def test_finished_streams_are_dropped_and_their_totals_kept(self):
        """The manager holds a stream while it has riders and only its
        I/O totals after: nothing of a finished stream is reachable."""
        data = _coded_orders(seed=73)
        table = load_table(data, Layout.COLUMN)
        narrow = ScanQuery("ORDERS", select=("O_ORDERKEY",))
        manager = ScanShareManager()
        gc.disable()
        try:
            riders = [
                manager.acquire(table, query, ExecutionContext())
                for query in (QUERY, narrow, QUERY)
            ]
            assert len(manager.live_streams()) == 2
            streams = [weakref.ref(stream) for stream in manager.live_streams()]
            # The ledgers outlive their streams: what each had read by the end.
            ledgers = [stream.io_events for stream in manager.live_streams()]
            _drain_consumer(riders[0])
            assert len(manager.live_streams()) == 2  # its peer still rides
            live_total = manager.io_pages()
            assert live_total == sum(ledger.pages_touched for ledger in ledgers)
            for rider in riders[1:]:
                _drain_consumer(rider)
            del riders, rider
            assert manager.live_streams() == [] and manager.board() == []
            assert [stream() for stream in streams] == [None, None]
            # A later solo rider is a miss on a fresh stream, dropped in turn.
            _drain_consumer(manager.acquire(table, narrow, ExecutionContext()))
            assert manager.live_streams() == [] and manager.misses == 3
        finally:
            gc.enable()
        assert manager.io_pages() == sum(l.pages_touched for l in ledgers) + ledgers[1].pages_touched
        assert manager.io_bytes() == manager.io_pages() * table.page_size
        assert manager.stats()["shared_io_pages"] == manager.io_pages() > live_total

    def test_a_failed_stream_is_replaced_and_counted_once(self):
        data = _coded_orders(seed=59)
        table = load_table(data, Layout.ROW)
        _corrupt_page(table.file, 1)
        manager = ScanShareManager()
        doomed = [manager.acquire(table, QUERY, ExecutionContext()) for _ in range(2)]
        doomed[0].open()
        with pytest.raises(ChecksumError):
            while doomed[0].advance():
                pass
        failed = doomed[0].share
        assert failed.failed is not None and failed.io_events.pages_touched == 2
        # Its riders are still attached; a newcomer gets a fresh stream.
        salvager = manager.acquire(table, QUERY, ExecutionContext(strict_integrity=False))
        fresh = manager.acquire(table, QUERY, ExecutionContext())
        assert fresh.share is not failed and salvager.share is not failed
        for rider in doomed:
            manager.discard(rider)
        _drain_consumer(salvager)
        manager.discard(fresh)
        assert manager.live_streams() == []
        assert manager.io_pages() == 2 + table.file.num_pages


# --- run length is not observable -------------------------------------------------


def _run_length_table(dataset: str, layout: Layout, faulty: bool):
    """``(table, calibration, queries)``: LINEITEM plain or Fig-5 at 4 KB
    pages, four to the window, or the RLE / DICT / FOR ORDERS above at
    256-byte pages, three to the window — every pass is many windows."""
    if dataset == "orders":
        data = _coded_orders(seed=11)
        if layout is not Layout.COLUMN:
            # RLE is a column codec: its runs do not fit a 256-byte row page.
            plain = orders_schema().attribute("O_SHIPPRIORITY").codec_spec
            data = data.with_schema(data.schema.with_codecs({"O_SHIPPRIORITY": plain}))
        table = load_table(data, layout, page_size=256)
        if faulty:
            plan = FaultPlan(seed=7)
            for page in golden.CORRUPT_PAGES:
                plan.schedule_bit_flip(page, byte=11, bit=3)
            plan.wrap_table(table)
        price = predicate_for_selectivity("O_TOTALPRICE", data.columns["O_TOTALPRICE"], 0.3)
        key = predicate_for_selectivity("O_ORDERKEY", data.columns["O_ORDERKEY"], 0.5)
        queries = [
            QUERY,
            ScanQuery("ORDERS", select=QUERY.select, predicates=(price,)),
            ScanQuery("ORDERS", select=("O_SHIPPRIORITY", "O_CUSTKEY"), predicates=(key,)),
        ]
        return table, DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=3 * 256), queries
    table = golden._table(dataset, layout, faulty)
    named = golden._queries(dataset)
    queries = [named[name] for name in ("one-10pct", "two-10pct", "band", "text")]
    return table, DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=4 * 4096), queries


def _run_length_schedule(
    rng: random.Random, segments: int, window: int, queries: int, wrap: bool
) -> list:
    """Who attaches when and who pumps how far, in segments — so the same
    schedule can be driven at any run length.  ``("attach", query)`` or
    ``("pump", rider, segments)``; every rider is pumped dry at the end.
    With ``wrap`` a third rider joins just after the cursor has wrapped.

    ``moved`` counts the segments delivered so far on a clean stream: a
    rider attached at ``moved == a`` needs pumping until ``a + segments``.
    """
    schedule = [("attach", rng.randrange(queries))]
    attached_at = [0]
    moved = 0
    for rider in range(1, rng.randint(3, 4) if wrap else rng.randint(1, 4)):
        cursor = moved % segments
        # Where the next rider joins: inside the window, on its edge or
        # well into the pass.
        distance = rng.choice(
            [rng.randint(1, window - 1), window - cursor % window, rng.randint(window, segments - 1)]
        )
        if wrap and rider == 1:
            distance = rng.randint(window + 1, segments - 1)
        if wrap and rider == 2:
            distance = segments - cursor + rng.randint(0, window)
        while distance > 0:
            live = [k for k, at in enumerate(attached_at) if moved < at + segments]
            chunk = rng.randint(1, distance)
            schedule.append(("pump", rng.choice(live), chunk))
            distance -= chunk
            moved += chunk
        schedule.append(("attach", rng.randrange(queries)))
        attached_at.append(moved)
    return schedule


def _drive_run_length(table, calibration, queries, schedule, strict: bool, run: int) -> dict:
    """Drive ``schedule`` with pumps of ``run`` segments; 1 is the bare
    ``advance()`` (and runs on the parent commit as written)."""
    attrs = tuple(dict.fromkeys(name for query in queries for name in query.scan_attributes()))
    stream = SharedScanStream(table, attrs, strict, calibration)
    riders: list = []
    raised: list = []

    def pump(which: int, segments: float) -> None:
        rider = riders[which]
        if rider is None or raised[which] is not None:
            return
        governance = rider.context.governance
        try:
            while segments > 0:
                before = governance.ticks
                more = rider.advance() if run == 1 else rider.advance(int(min(run, segments)))
                segments -= governance.ticks - before
                if not more:
                    break
        except ReproError as exc:
            raised[which] = type(exc).__name__
            stream.detach(rider)

    for action in schedule:
        if action[0] == "pump":
            pump(action[1], action[2])
            continue
        context = ExecutionContext(strict_integrity=strict, governance=QueryContext())
        try:
            rider = SharedScanConsumer(context, stream, queries[action[1]])
            rider.open()
            raised.append(None)
        except ReproError as exc:  # the stream had failed already
            rider = None
            raised.append(type(exc).__name__)
        riders.append(rider)
    outcome = {"attach_cursors": [rider.attach_cursor for rider in riders if rider is not None]}
    for which in range(len(riders)):
        pump(which, float("inf"))
    outcome["riders"] = []
    for rider, error in zip(riders, raised):
        blocks = []
        if error is None:
            while (block := rider.next()) is not None:
                blocks.append(block)
            rider.close()
        record = golden._record(rider.context, blocks) if rider is not None else {}
        outcome["riders"].append({**record, "raises": error})
    outcome["stream"] = {
        "io_events": stream.io_events.as_dict(),
        "cursor": stream.cursor,
        "failed": type(stream.failed).__name__,
        "lost": sorted(
            [file, page, fault.rows_lost] for (file, page), fault in stream._lost.items()
        ),
        "riders_left": len(stream.consumers),
    }
    return outcome


#: CRC-32 of the run-of-one outcomes below, measured at the parent commit
#: (347a23d, segment-at-a-time delivery): the reference is the old code.
RUN_OF_ONE_AT_PARENT = {
    ("plain", "ROW"): "9b1ad9df",
    ("plain", "PAX"): "dd71d201",
    ("plain", "COLUMN"): "fa70e291",
    ("z", "ROW"): "ff81ff55",
    ("z", "PAX"): "ae72b5e1",
    ("z", "COLUMN"): "240d5e9d",
    ("orders", "ROW"): "fbee379c",
    ("orders", "PAX"): "5e69a51e",
    ("orders", "COLUMN"): "4150ef0e",
}


def _run_length_cases(dataset: str, layout: Layout):
    """``(window, strict, drive)`` per seeded case: ``drive(run)`` is the
    case's outcome at that run length.  Odd seeds read the faulty
    table, every other one of them strictly; every fourth seed has a
    rider join after the wrap."""
    for seed in range(8):
        rng = random.Random(f"run-length-{dataset}-{layout.name}-{seed}")
        faulty = seed % 2 == 1
        strict = not faulty or seed % 4 == 3
        table, calibration, queries = _run_length_table(dataset, layout, faulty)
        attrs = tuple(dict.fromkeys(name for query in queries for name in query.scan_attributes()))
        segments = SharedScanStream(table, attrs, True, calibration).num_segments
        window = calibration.io_unit_bytes // table.page_size
        assert segments > 3 * window
        schedule = _run_length_schedule(rng, segments, window, len(queries), wrap=seed % 4 == 0)
        yield window, strict, functools.partial(
            _drive_run_length, table, calibration, queries, schedule, strict
        )


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
@pytest.mark.parametrize("dataset", ["plain", "z", "orders"])
def test_run_length_is_not_observable(dataset, layout):
    """The same seeded schedule — 1 to 4 riders attaching at random
    cursors, mid-window and after the wrap, clean, salvage and strict —
    driven in runs of 1, 3, a window and more than a window: result
    bytes, every rider's events, ticks and corruption report, the
    stream's I/O, lost pages and cursor do not depend on the run."""
    crc = 0
    wrapped = mid_window = failed = lost = 0
    for window, strict, drive in _run_length_cases(dataset, layout):
        reference = drive(1)
        for run in (3, window, window + 5):
            assert drive(run) == reference, run
        crc = zlib.crc32(json.dumps(reference, sort_keys=True).encode(), crc)
        cursors = reference["attach_cursors"]
        wrapped += any(b < a for a, b in zip(cursors, cursors[1:]))
        mid_window += any(cursor % window for cursor in cursors)
        failed += reference["stream"]["failed"] != "NoneType"
        lost += bool(reference["stream"]["lost"])
    assert wrapped and mid_window and failed and lost
    assert f"{crc:08x}" == RUN_OF_ONE_AT_PARENT[dataset, layout.name]
