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
from repro.database import Database
from repro.data.generator import GeneratedTable
from repro.data.tpch import (
    apply_fig5_compression,
    generate_lineitem,
    generate_orders,
    orders_schema,
)
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.governance import QueryContext
from repro.engine.operators import scan_core
from repro.engine.predicate import ComparisonOp, Predicate, predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import QueryState, Scheduler, WorkloadQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer, SharedScanStream
from repro.errors import ChecksumError, CompressionError, ReproError, SchemaError
from repro.obs import recorder as flight
from repro.obs.dashboard import render_board
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import SpanTracer
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.table import ColumnTable
from repro.testing.oracle import oracle_scan
from tests import scan_golden as golden
from tests.conftest import ONE_UNIT_WINDOWS
from tests.test_slot_gather import _bad_dictionary_code

ROWS = 700


def _spec(kind: CodecKind, attr_type, values: np.ndarray):
    return build_codec_for_values(kind, attr_type, values, page_capacity_hint=256).spec


def _coded_orders(seed: int, layout: Layout = Layout.COLUMN) -> GeneratedTable:
    """ORDERS data with RLE, dictionary, and FOR codecs assigned — RLE
    only for ``Layout.COLUMN``: it is a column codec, and row and PAX
    pages refuse it, so their ``O_SHIPPRIORITY`` stays plain."""
    data = generate_orders(ROWS, seed=seed)
    schema = data.schema
    # Sort one column's values into runs so RLE has something to encode
    # (the codec requires nothing; the runs make the pages interesting).
    columns = dict(data.columns)
    columns["O_SHIPPRIORITY"] = np.sort(columns["O_SHIPPRIORITY"])
    specs = {
        "O_SHIPPRIORITY": (
            _spec(
                CodecKind.RLE,
                schema.attribute("O_SHIPPRIORITY").attr_type,
                columns["O_SHIPPRIORITY"],
            )
            if layout is Layout.COLUMN
            else schema.attribute("O_SHIPPRIORITY").codec_spec
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
        data = _coded_orders(seed=11, layout=layout)
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
        assert_identical(merged, want)
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


class TestSalvagePages:
    """Corrupt pages drop the same rows as a serial salvage scan."""

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN])
    def test_salvage_matches_serial_salvage(self, layout):
        data = _coded_orders(seed=47, layout=layout)
        table = load_table(data, layout)
        if isinstance(table, ColumnTable):
            victim = table.column_file("O_ORDERKEY").file
        else:
            victim = table.file
        victim.corrupt(victim.num_pages // 2, 97)
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
        victim.corrupt(0, 97)
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

    def test_a_unit_spanning_a_lost_page_places_each_page_by_row(self, monkeypatch):
        """A window opened after a page was lost leaves it out of its page
        list, so one unit spans it: the pages on either side land on their
        own rows, as in a serial salvage scan of every attach point."""
        data = _coded_orders(seed=53)
        table = load_table(data, Layout.COLUMN, page_size=256)
        calibration = DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=4 * 256)
        victim = table.column_file("O_TOTALPRICE").file
        lost = victim.num_pages // 2
        victim.corrupt(lost, 97)
        want = run_scan(table, QUERY, salvage=True)
        faults = [(f.file, f.page, f.rows_lost) for f in want.corruption.faults]
        assert [page for _file, page, _rows in faults] == [lost]
        spans = []
        real = scan_core.guarded_decode_unit

        def spy(context, decode_unit, file, pages, span_of, at):
            if file is victim and pages[0] < lost < pages[-1] and lost not in pages:
                spans.append(list(pages))
            return real(context, decode_unit, file, pages, span_of, at)

        monkeypatch.setattr(scan_core, "guarded_decode_unit", spy)
        probe = SharedScanStream(table, QUERY.scan_attributes(), False, calibration)
        for attach_at in range(probe.num_segments + 1):
            stream = SharedScanStream(table, QUERY.scan_attributes(), False, calibration)
            _advance_stream(stream, QUERY, attach_at)
            rider = SharedScanConsumer(ExecutionContext(strict_integrity=False), stream, QUERY)
            got = _drain_consumer(rider)
            assert_identical(got, want)
            assert [(f.file, f.page, f.rows_lost) for f in got.corruption.faults] == faults
        assert spans

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.COLUMN])
    def test_unreadable_page_is_salvaged_like_a_serial_scan(self, layout):
        """A read that exhausts its retries is a lost page, not a dead stream."""
        data = _coded_orders(seed=67, layout=layout)

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
        data = _coded_orders(seed=59, layout=Layout.ROW)
        table = load_table(data, Layout.ROW)
        table.file.corrupt(0, 97)
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
        data = _coded_orders(seed=59, layout=Layout.ROW)
        table = load_table(data, Layout.ROW)
        table.file.corrupt(1, 97)
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
        data = _coded_orders(seed=11, layout=layout)
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


def _drive_run_length(
    table, calibration, queries, schedule, strict: bool, run: int, traced: bool = False
) -> dict:
    """Drive ``schedule`` with pumps of ``run`` segments; 1 is the bare
    ``advance()`` (and runs on the parent commit as written).  With
    ``traced`` every other rider has a tracer, and its span totals are
    recorded too."""
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
                held = [len(peer._buffered) if peer is not None else 0 for peer in riders]
                more = rider.advance() if run == 1 else rider.advance(int(min(run, segments)))
                segments -= governance.ticks - before
                # A rider holds only rows of the segments it has been delivered.
                for peer, start in zip(riders, held):
                    for _at, block in peer._buffered[start:] if peer is not None else ():
                        segment = np.searchsorted(stream._starts, block.positions, side="right") - 1
                        assert peer._remaining.isdisjoint(segment.tolist())
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
        if traced and len(riders) % 2:
            context.tracer = SpanTracer()
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
        if rider is not None and rider.context.tracer is not None:
            record["traced"] = golden._events(rider.context.tracer.total_events())
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


# --- riding while queued is not observable ----------------------------------------


#: Golden queries by column set: the members of a family read one.
QUEUED_FAMILIES = {
    "one": ("one-0.1pct", "one-10pct", "one-100pct"),
    "two": ("two-0.1pct", "two-10pct", "two-100pct"),
    "band": ("band",),
    "all16": ("all16",),
    "text": ("text",),
}


def _queued_tables(dataset: str, layout: Layout) -> list:
    """LINEITEM one window long (400 rows) and several: 3,000 rows (38-116
    row pages), 7,000 for COLUMN (its ``band`` / ``all16`` files 49-51
    pages)."""
    tables = []
    for rows in (400, 7_000 if layout is Layout.COLUMN else golden.ROWS):
        data = generate_lineitem(rows, seed=golden.SEED)
        tables.append(load_table(apply_fig5_compression(data) if dataset == "z" else data, layout))
    return tables


def _queued_batch(table, queries, salvaged: int, max_inflight: int, split: int, polls: int):
    """One scheduled batch of ``queries``: those before ``split`` are
    submitted, ``polls`` rounds run, then the rest are submitted and the
    batch is run out; query ``salvaged`` reads in salvage mode.

    Asserts each handle's result bytes against its serial ``run_scan``
    and returns ``(outcomes, boarded, boarded mid-pass)``: per handle its
    events and corruption report (faults sorted: a rider's attach point
    orders them), and how many ``share.attach`` events were of a queued
    rider, and how many of those boarded past cursor 0.
    """
    scheduler = Scheduler(max_inflight=max_inflight)
    flight.RECORDER.clear()
    handles = []
    for index, query in enumerate(queries):
        if index == split:
            for _ in range(polls):
                scheduler.poll()
        handles.append(scheduler.submit(table, query, salvage=index == salvaged))
    scheduler.run()
    outcomes = []
    for index, (handle, query) in enumerate(zip(handles, queries)):
        serial = run_scan(table, query, salvage=index == salvaged)
        assert golden._digest(handle.result) == golden._digest(serial)
        corruption = handle.result.corruption
        outcomes.append(
            {
                "events": golden._events(handle.result.events),
                "pages_scanned": corruption.pages_scanned,
                "faults": sorted([f.file, f.page, f.rows_lost] for f in corruption.faults),
            }
        )
    boarded = [
        event.detail["cursor"]
        for event in flight.RECORDER.events("share.attach")
        if event.detail.get("queued")
    ]
    return outcomes, len(boarded), sum(cursor > 0 for cursor in boarded)


def _queued_outcomes(dataset: str, layout: Layout) -> tuple[dict, int, int]:
    """Seeded batches with a queue, in two scenarios, and ``(outcomes by
    scenario, boarded, boarded mid-pass)`` over both (:func:`_queued_batch`).

    ``mixed``: 2-3 column sets, ``max_inflight`` 1-4, one salvage query
    mixed in, a second wave submitted after 1-2 rounds.  ``wide first``:
    ``all16`` alone for one round with ``max_inflight`` 1, then 4-7
    narrower queries, one of them salvaged — on a row or PAX table more
    than a window long, those its stream carries board it mid-pass.
    Both run as written on the parent commit of each pin below.
    """
    named = golden._queries(dataset)
    outcomes = {"mixed": [], "wide first": []}
    boarded = mid_pass = 0
    for size, table in enumerate(_queued_tables(dataset, layout)):
        for seed in range(4):
            rng = random.Random(f"queued-riders-{dataset}-{layout.name}-{size}-{seed}")
            # ``band`` reads several windows of every larger table: the
            # first query pumps it, so later waves board it mid-pass.
            others = sorted(set(QUEUED_FAMILIES) - {"band"})
            families = ["band", *rng.sample(others, rng.randint(1, 2))]
            queries = [named["band"]] + [
                named[rng.choice(QUEUED_FAMILIES[rng.choice(families)])]
                for _ in range(rng.randint(7, 11))
            ]
            salvaged = rng.randrange(len(queries))
            max_inflight = rng.randint(1, 4)
            # The first wave overfills the window, so the second one queues.
            split = rng.randint(max_inflight + 1, len(queries) - 2)
            polls = rng.randint(1, 2)
            got = _queued_batch(table, queries, salvaged, max_inflight, split, polls)
            outcomes["mixed"] += got[0]
            boarded, mid_pass = boarded + got[1], mid_pass + got[2]
        for seed in range(2):
            rng = random.Random(f"wide-first-{dataset}-{layout.name}-{size}-{seed}")
            narrower = sorted(set(named) - {"all16"})
            queries = [named["all16"]] + [
                named[rng.choice(narrower)] for _ in range(rng.randint(4, 7))
            ]
            salvaged = rng.randrange(1, len(queries))
            got = _queued_batch(table, queries, salvaged, 1, 1, 1)
            outcomes["wide first"] += got[0]
            boarded, mid_pass = boarded + got[1], mid_pass + got[2]
    return outcomes, boarded, mid_pass


#: CRC-32 of the ``mixed`` outcomes above, measured at the parent commit
#: (b530eec, where a queued query attaches only once admitted): the
#: reference is the old code.
QUEUED_AT_PARENT = {
    ("plain", "ROW"): "6b07198b",
    ("plain", "PAX"): "8b2cc63f",
    ("plain", "COLUMN"): "c6ef6523",
    ("z", "ROW"): "15d2f839",
    ("z", "PAX"): "cf2e0187",
    ("z", "COLUMN"): "c0309806",
}

#: CRC-32 of the ``wide first`` outcomes, measured at the parent commit
#: (1ebb20e, where a share key names the column set on every layout).
WIDE_FIRST_AT_PARENT = {
    ("plain", "ROW"): "cb330898",
    ("plain", "PAX"): "25cfb317",
    ("plain", "COLUMN"): "6ebbafc2",
    ("z", "ROW"): "682a79ae",
    ("z", "PAX"): "683b990c",
    ("z", "COLUMN"): "3faaea02",
}


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
@pytest.mark.parametrize("dataset", ["plain", "z"])
@pytest.mark.usefixtures("one_unit_windows")
def test_riding_while_queued_is_not_observable(dataset, layout):
    """A query that boards a live stream while it waits for admission
    returns the bytes of its serial scan, and the events and corruption
    report it had when it attached only once admitted: what rode early
    is its attach point, the stream count and the streams' I/O."""
    outcomes, boarded, mid_pass = _queued_outcomes(dataset, layout)
    assert boarded and mid_pass
    crc = zlib.crc32(json.dumps(outcomes["mixed"], sort_keys=True).encode())
    assert f"{crc:08x}" == QUEUED_AT_PARENT[dataset, layout.name]
    crc = zlib.crc32(json.dumps(outcomes["wide first"], sort_keys=True).encode())
    assert f"{crc:08x}" == WIDE_FIRST_AT_PARENT[dataset, layout.name]


# --- filtering riders together is not observable ---------------------------------


def _together_queries(data: GeneratedTable) -> list[ScanQuery]:
    """Riders a stream can filter together — every comparison on
    ``O_CUSTKEY`` at three constants, ``np.int64`` among them, and three
    text constants — and riders that filter alone: constants no int64
    array holds as they are (``2**70``, floats), conjunctions and a scan
    with no predicate."""
    keys = data.columns["O_CUSTKEY"]
    low, mid, high = (int(np.quantile(keys, q)) for q in (0.2, 0.5, 0.8))
    wide = ("O_ORDERKEY", "O_CUSTKEY", "O_TOTALPRICE")

    def one(select, attr, op, value):
        return ScanQuery("ORDERS", select=select, predicates=(Predicate(attr, op, value),))

    queries = [one(wide, "O_CUSTKEY", op, value) for op in ComparisonOp for value in (low, mid, np.int64(high))]
    queries += [
        one(("O_ORDERKEY",), "O_CUSTKEY", ComparisonOp.LE, value)
        for value in (2**40, 2**70, -(2**70), mid + 0.5, float(mid))
    ]
    queries += [
        one(("O_ORDERSTATUS", "O_TOTALPRICE"), "O_ORDERSTATUS", ComparisonOp.EQ, status)
        for status in (b"F", b"O", b"P")
    ]
    price = int(np.quantile(data.columns["O_TOTALPRICE"], 0.6))
    queries += [
        ScanQuery(
            "ORDERS",
            select=wide,
            predicates=(
                Predicate("O_CUSTKEY", ComparisonOp.GE, low),
                Predicate("O_CUSTKEY", ComparisonOp.LT, high),
            ),
        ),
        ScanQuery(
            "ORDERS",
            select=("O_SHIPPRIORITY", "O_ORDERSTATUS"),
            predicates=(
                Predicate("O_TOTALPRICE", ComparisonOp.LE, price),
                Predicate("O_ORDERKEY", ComparisonOp.GT, low),
            ),
        ),
        QUERY,
    ]
    return queries


def _together_cases(layout: Layout):
    """``(table, queries, attached, strict, drive)`` per seeded case:
    clean, a salvage stream over corrupt pages and a strict one that
    fails, over the ORDERS above at 1 KB row and PAX pages (23 of them)
    or 256-byte column pages (12 per file), three pages to the window.
    Every query rides, in three shuffled waves at seeded cursors
    (``attached``: the queries in attach order), pumped a window at a
    time as the scheduler does, one rider in two traced."""
    data = _coded_orders(seed=11, layout=layout)
    queries = _together_queries(data)
    page_size = 256 if layout is Layout.COLUMN else 1024
    calibration = DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=3 * page_size)
    for seed, (faulty, strict) in enumerate(((False, True), (True, False), (True, True))):
        rng = random.Random(f"together-{layout.name}-{seed}")
        table = load_table(data, layout, page_size=page_size)
        if faulty:
            plan = FaultPlan(seed=7)
            for page in golden.CORRUPT_PAGES:
                plan.schedule_bit_flip(page, byte=11, bit=3)
            plan.wrap_table(table)
        segments = SharedScanStream(table, ("O_ORDERKEY",), True, calibration).num_segments
        order = rng.sample(range(len(queries)), len(queries))
        cuts = sorted(rng.sample(range(1, len(queries)), 2))
        schedule = [("attach", query) for query in order[: cuts[0]]]
        schedule.append(("pump", 0, rng.randint(1, segments - 1)))
        schedule += [("attach", query) for query in order[cuts[0] : cuts[1]]]
        schedule.append(("pump", cuts[0], rng.randint(1, segments)))
        schedule += [("attach", query) for query in order[cuts[1] :]]
        yield table, queries, order, strict, functools.partial(
            _drive_run_length, table, calibration, queries, schedule, strict, 3, traced=True
        )


#: CRC-32 of the outcomes above, measured at the parent commit (7573dad,
#: where every rider filters alone): the reference is the old code.
TOGETHER_AT_PARENT = {
    "ROW": "ed2d13e5",
    "PAX": "97d9de9b",
    "COLUMN": "a33fb48e",
}


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
def test_filtering_riders_together_is_not_observable(layout, monkeypatch):
    """Riders a delivery filters in one pass per (attribute, comparison)
    — every comparison, ``np.int64`` and text constants, beside riders
    that must filter alone (``2**70``, floats, conjunctions, lost rows) —
    each get the bytes, events, ticks, corruption and span totals they
    get when every rider filters alone, and on a clean stream the bytes
    of a serial scan."""
    crc = wrapped = mid_window = lost = failed = 0
    together = []
    original = SharedScanStream._filter_together

    def spy(stream, index, takers, leasts, window):
        filtered = original(stream, index, takers, leasts, window)
        together.extend(filtered)
        return filtered

    for table, queries, attached, strict, drive in _together_cases(layout):
        with monkeypatch.context() as patch:
            patch.setattr(SharedScanStream, "_filter_together", spy)
            got = drive()
        with monkeypatch.context() as patch:
            patch.setattr(SharedScanStream, "_filter_together", lambda *args: {})
            assert drive() == got
        for query, rider in zip(attached, got["riders"]):
            # A salvage stream loses the rows of every file it carries.
            if rider["raises"] is None and not got["stream"]["lost"]:
                serial = run_scan(table, queries[query], salvage=not strict)
                assert rider["digest"] == golden._digest(serial)
        crc = zlib.crc32(json.dumps(got, sort_keys=True).encode(), crc)
        cursors = got["attach_cursors"]
        wrapped += any(b < a for a, b in zip(cursors, cursors[1:]))
        mid_window += any(cursor % 3 for cursor in cursors)
        lost += bool(got["stream"]["lost"])
        failed += got["stream"]["failed"] != "NoneType"
    assert wrapped and mid_window and lost and failed
    grouped = {rider._together for rider in together}
    if layout is Layout.COLUMN:
        assert {op for _attr, op in grouped} == set(ComparisonOp)
        assert ("O_ORDERSTATUS", ComparisonOp.EQ) in grouped
    else:
        # A row or PAX rider reads its pages through the serial read step.
        assert not grouped
    assert f"{crc:08x}" == TOGETHER_AT_PARENT[layout.name]


def test_a_batch_reads_each_column_set_once():
    """64 queries over two column sets, eight admitted at a time, on a
    table one window long: one stream per column set, and the 56 queries
    that queue board it while they wait, every one logged."""
    data = generate_orders(2_000, seed=5)
    table = load_table(data, Layout.COLUMN)
    wide = ("O_ORDERKEY", "O_CUSTKEY", "O_TOTALPRICE", "O_ORDERDATE")
    narrow = ("O_CUSTKEY", "O_TOTALPRICE")
    scheduler = Scheduler(max_inflight=8, slowlog=SlowQueryLog(top_k=64))
    handles = []
    for index in range(64):
        select = narrow if index % 4 == 3 else wide
        attr = select[index % len(select)]
        predicate = predicate_for_selectivity(attr, data.column(attr), (index % 10) / 10)
        handles.append(
            scheduler.submit(table, ScanQuery("ORDERS", select=select, predicates=(predicate,)))
        )
    assert scheduler.poll()
    assert sum(stream["queued"] != [] for stream in scheduler.board()["streams"]) == 2
    scheduler.run()
    stats = scheduler.stats()
    assert (stats["share_misses"], stats["share_hits"]) == (2, 62)
    assert all(handle.state is QueryState.DONE for handle in handles)
    assert len(scheduler.slowlog) == 64
    assert scheduler.manager.live_streams() == []


#: The paged cells of the row-key tests: ``(layout, Fig-5 compression)``.
ROW_KEY_CELLS = {"ROW": (Layout.ROW, False), "ROW-Z": (Layout.ROW, True), "PAX": (Layout.PAX, False)}


def _two_projections(cell: str, faulty: bool) -> tuple[list, dict, object]:
    """Two requests in one ``run_workload`` that project ``{A, B}`` and
    ``{B, C}`` under one predicate on ``A`` — salvaged over a corrupt
    page when ``faulty`` — checked against their serial ``run_scan``:
    per rider its events and corruption report, the batch's stats, and
    the table."""
    layout, compress = ROW_KEY_CELLS[cell]
    data = generate_orders(5_000, seed=34)
    db = Database(layouts=(layout,))
    db.create_table(data, compress=compress)
    table = db.table("ORDERS")
    if faulty:
        table.file.corrupt(table.file.num_pages * 3 // 4, 97)
    predicate = predicate_for_selectivity("O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.3)
    requests = [
        WorkloadQuery("ORDERS", select=select, predicates=(predicate,), salvage=faulty)
        for select in (("O_TOTALPRICE", "O_CUSTKEY"), ("O_CUSTKEY", "O_ORDERDATE"))
    ]
    handles = db.run_workload(requests, info=(info := {}))
    outcomes = []
    for handle, request in zip(handles, requests):
        query = ScanQuery("ORDERS", select=request.select, predicates=request.predicates)
        assert_identical(handle.result, run_scan(table, query, salvage=faulty))
        corruption = handle.result.corruption
        outcomes.append(
            {
                "events": golden._events(handle.result.events),
                "pages_scanned": corruption.pages_scanned,
                "faults": [[f.file, f.page, f.rows_lost] for f in corruption.faults],
            }
        )
    return outcomes, info, table


#: CRC-32 of :func:`_two_projections`' rider outcomes, measured at the
#: parent commit (1ebb20e, where the two projections open two streams).
TWO_PROJECTIONS_AT_PARENT = {
    ("ROW", False): "c069f51b",
    ("ROW", True): "9c015770",
    ("ROW-Z", False): "000c4e21",
    ("ROW-Z", True): "1345dcc8",
    ("PAX", False): "c069f51b",
    ("PAX", True): "9c015770",
}


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "salvage"])
@pytest.mark.parametrize("cell", list(ROW_KEY_CELLS))
def test_two_projections_of_a_row_table_share_one_pass(cell, faulty):
    """A row page holds whole tuples: queries that project different
    attributes of a ROW, ROW-Z or PAX table ride one stream, which reads
    the file once, and each rider gets the bytes, events and corruption
    report it got riding a stream of its own."""
    outcomes, info, table = _two_projections(cell, faulty)
    assert (info["share_misses"], info["share_hits"]) == (1, 1)
    assert info["shared_io_pages"] == table.file.num_pages
    assert not faulty or all(outcome["faults"] for outcome in outcomes)
    crc = zlib.crc32(json.dumps(outcomes, sort_keys=True).encode())
    assert f"{crc:08x}" == TWO_PROJECTIONS_AT_PARENT[cell, faulty]


def _corrupt_mid_window(cell: str, strict: bool) -> dict:
    """Three riders of one ROW, ROW-Z or PAX stream, projecting ``{A, B,
    C}``, ``{B, C}`` and ``{C}`` under one predicate on ``A``, over a page
    corrupted in the middle of the second window: the second attaches
    mid-window, the third at the window's end.  Per rider, what it got
    (its output, events, ticks, pages scanned and faults, or its typed
    error) and, at the end, the stream's I/O."""
    layout, compress = ROW_KEY_CELLS[cell]
    data = generate_orders(40_000 if compress else 14_000, seed=46)
    table = load_table(apply_fig5_compression(data) if compress else data, layout)
    span = scan_core.window_pages(ONE_UNIT_WINDOWS, table.page_size)
    assert table.file.num_pages > 3 * span
    table.file.corrupt(span + span // 2, 97)
    predicate = predicate_for_selectivity("O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.3)
    queries = [
        ScanQuery("ORDERS", select=select, predicates=(predicate,))
        for select in (
            ("O_TOTALPRICE", "O_CUSTKEY", "O_ORDERDATE"),
            ("O_CUSTKEY", "O_ORDERDATE"),
            ("O_ORDERDATE",),
        )
    ]
    manager = ScanShareManager()
    contexts, riders = [], []
    for query, pumps in zip(queries, (span // 2, span - span // 2, 0)):
        context = ExecutionContext(
            calibration=ONE_UNIT_WINDOWS, strict_integrity=strict, governance=QueryContext()
        )
        rider = manager.acquire(table, query, context)
        rider.open()
        rider.advance(pumps)
        contexts.append(context)
        riders.append(rider)
    assert len(manager.live_streams()) == 1
    stream = riders[0].share
    outcomes = []
    for rider, query, context in zip(riders, queries, contexts):
        blocks = []
        try:
            while (block := rider.next()) is not None:
                blocks.append(block)
            raised = None
        except ReproError as exc:
            raised = type(exc).__name__
        manager.discard(rider)
        outcome = golden._record(context, blocks)
        outcome.update(raises=raised, attach_cursor=rider.attach_cursor)
        if raised is None:
            serial = run_scan(table, query, salvage=not strict)
            assert outcome["digest"] == golden._digest(serial)
        outcomes.append(outcome)
    return {"riders": outcomes, "io_events": golden._events(stream.io_events)}


#: CRC-32 of :func:`_corrupt_mid_window`, measured at the parent commit
#: (3efecc8, where the stream decodes every attribute its riders read
#: and filters them out for each).
CORRUPT_MID_WINDOW_AT_PARENT = {
    ("ROW", True): "e3427be4",
    ("ROW", False): "60c6e020",
    ("ROW-Z", True): "46205284",
    ("ROW-Z", False): "c038f377",
    ("PAX", True): "e3427be4",
    ("PAX", False): "60c6e020",
}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "salvage"])
@pytest.mark.parametrize("cell", list(ROW_KEY_CELLS))
def test_a_corrupt_page_mid_window_reaches_each_rider_as_before(cell, strict):
    """A row or PAX rider reads the stream's checked pages through the
    serial read step: over a corrupt page in mid-window, strict riders
    fail where they did and salvage riders lose its rows, and each one's
    output, events, ticks, pages scanned and faults — and the stream's
    I/O — are what they were when the stream decoded for them."""
    got = _corrupt_mid_window(cell, strict)
    raised = [rider["raises"] for rider in got["riders"]]
    if strict:
        assert raised[0] == "ChecksumError" and set(raised) <= {"ChecksumError"}
    else:
        assert raised == [None] * 3 and all(rider["faults"] for rider in got["riders"])
    crc = zlib.crc32(json.dumps(got, sort_keys=True).encode())
    assert f"{crc:08x}" == CORRUPT_MID_WINDOW_AT_PARENT[cell, strict]


@pytest.mark.parametrize("salvage", [False, True], ids=["strict", "salvage"])
def test_a_bad_code_fails_only_the_rider_that_reads_it(salvage):
    """A CRC-valid ROW-Z page holds a dictionary code past its dictionary.
    The stream checks pages and decodes no value, so the code reaches only
    the rider whose read step takes it, as it reaches that query's serial
    scan: strict, that rider fails typed; salvaging, it drops the page.
    A peer that does not read the attribute answers in full either way."""
    data = apply_fig5_compression(generate_lineitem(3_000, seed=3))
    table = load_table(data, Layout.ROW)
    key = data.column("L_EXTENDEDPRICE")
    bad = int(np.argmax(key))
    page = _bad_dictionary_code(table, bad, "L_RETURNFLAG")
    predicate = Predicate("L_EXTENDEDPRICE", ComparisonOp.LE, int(key[bad]))
    queries = {
        "peer": ScanQuery("LINEITEM", select=("L_EXTENDEDPRICE", "L_SHIPMODE")),
        "reader": ScanQuery("LINEITEM", select=("L_RETURNFLAG",), predicates=(predicate,)),
    }
    scheduler = Scheduler(max_inflight=2)
    handles = {
        name: scheduler.submit(table, query, salvage=salvage, label=name)
        for name, query in queries.items()
    }
    scheduler.run()
    assert (scheduler.stats()["share_misses"], scheduler.stats()["share_hits"]) == (1, 1)
    peer = handles["peer"].value()
    assert_identical(peer, run_scan(table, queries["peer"]))
    assert peer.corruption.is_clean
    if not salvage:
        assert isinstance(handles["reader"].error, CompressionError)
        return
    reader, serial = handles["reader"].value(), run_scan(table, queries["reader"], salvage=True)
    assert_identical(reader, serial)
    assert [fault.page for fault in reader.corruption.faults] == [page]
    assert reader.corruption.pages_scanned == serial.corruption.pages_scanned


@pytest.mark.usefixtures("one_unit_windows")
def test_a_failed_rider_keeps_its_first_error_and_reads_no_more(monkeypatch):
    """Two CRC-valid ROW-Z pages past a queued rider's attach point hold
    bad dictionary codes, a 3-entry one and, windows later, a 7-entry
    one.  The rider boards while queued and receives both off its peer's
    pumps: it fails at the first, as its serial scan does, and reads none
    of the deliveries after it."""
    data = apply_fig5_compression(generate_lineitem(12_000, seed=3))
    table = load_table(data, Layout.ROW)
    capacity, pages = table.page_codec.tuples_per_page, table.file.num_pages
    bad_pages = [
        _bad_dictionary_code(table, page * capacity, name)
        for page, name in ((pages - 40, "L_RETURNFLAG"), (pages - 2, "L_SHIPMODE"))
    ]
    queries = {
        "peer": ScanQuery("LINEITEM", select=("L_EXTENDEDPRICE",)),
        "reader": ScanQuery("LINEITEM", select=("L_RETURNFLAG", "L_SHIPMODE")),
    }
    reads = []
    read_run = SharedScanConsumer._read_run

    def counted(rider, index, stop, window):
        if rider.context.label == "reader":
            reads.append(index)
        return read_run(rider, index, stop, window)

    monkeypatch.setattr(SharedScanConsumer, "_read_run", counted)
    scheduler = Scheduler(max_inflight=1)
    flight.RECORDER.clear()
    handles = {"peer": scheduler.submit(table, queries["peer"], label="peer")}
    assert scheduler.poll()
    (stream,) = scheduler.manager.live_streams()
    handles["reader"] = scheduler.submit(table, queries["reader"], label="reader")
    scheduler.run()
    (attach,) = [
        event.detail for event in flight.RECORDER.events("share.attach") if event.query == "reader"
    ]
    assert attach["queued"] == 1 and attach["cursor"] < bad_pages[0]
    assert bad_pages[1] - bad_pages[0] > stream.window_segments
    with pytest.raises(CompressionError) as serial:
        run_scan(table, queries["reader"])
    assert "3-entry" in str(serial.value)
    assert type(handles["reader"].error) is CompressionError
    assert str(handles["reader"].error) == str(serial.value)
    # It read up to the delivery that holds the first bad page, no further.
    assert reads and max(reads) <= bad_pages[0]
    assert_identical(handles["peer"].value(), run_scan(table, queries["peer"]))


@pytest.mark.parametrize("cell", list(ROW_KEY_CELLS))
@pytest.mark.usefixtures("one_unit_windows")
def test_a_query_reading_more_rides_the_live_stream(cell):
    """A query submitted once its key's stream is mid-pass, reading an
    attribute its peer does not, rides that stream (a share hit): the
    stream pumps whole pages, so one circular pass serves both — every
    page once, and the prefix the late rider missed once more."""
    layout, compress = ROW_KEY_CELLS[cell]
    # More than two windows: the first rider is still mid-pass after two rounds.
    data = generate_orders(36_000 if compress else 12_000, seed=36)
    table = load_table(apply_fig5_compression(data) if compress else data, layout)
    predicate = predicate_for_selectivity("O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.2)
    queries = [
        ScanQuery("ORDERS", select=select, predicates=(predicate,))
        for select in (("O_CUSTKEY",), ("O_ORDERDATE",))
    ]
    scheduler = Scheduler(max_inflight=2)
    flight.RECORDER.clear()
    handles = [scheduler.submit(table, queries[0], label="first")]
    assert scheduler.poll()
    (stream,) = scheduler.manager.live_streams()
    assert 0 < stream.cursor and stream.num_segments > 2 * stream.window_segments
    handles.append(scheduler.submit(table, queries[1], label="late"))
    assert scheduler.poll()
    assert scheduler.manager.live_streams() == [stream]
    scheduler.run()
    attaches = {event.query: event.detail for event in flight.RECORDER.events("share.attach")}
    missed = attaches["late"]["cursor"]
    assert attaches["late"]["hit"] == 1 and 0 < missed < stream.num_segments
    stats = scheduler.stats()
    assert (stats["share_misses"], stats["share_hits"]) == (1, 1)
    assert stats["shared_io_pages"] == table.file.num_pages + missed
    assert stats["shared_io_bytes"] == stats["shared_io_pages"] * table.page_size
    for handle, query in zip(handles, queries):
        assert_identical(handle.value(), run_scan(table, query))


@pytest.mark.parametrize("cell", list(ROW_KEY_CELLS))
@pytest.mark.usefixtures("one_unit_windows")
def test_a_queued_query_boards_the_live_stream_whatever_it_reads(cell):
    """Behind a running rider, queued queries board its stream mid-pass
    whatever they read — one reading a subset of its attributes, one an
    attribute it does not read — as the board and their ``share.attach``
    show."""
    layout, compress = ROW_KEY_CELLS[cell]
    # More than two windows: the wide rider is still mid-pass after two rounds.
    data = generate_orders(36_000 if compress else 12_000, seed=37)
    table = load_table(apply_fig5_compression(data) if compress else data, layout)
    predicate = predicate_for_selectivity("O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.2)
    queries = [
        ScanQuery("ORDERS", select=select, predicates=(predicate,))
        for select in (("O_CUSTKEY", "O_ORDERDATE"), ("O_CUSTKEY",), ("O_SHIPPRIORITY",))
    ]
    labels = ("wide", "covered", "other")
    scheduler = Scheduler(max_inflight=1)
    flight.RECORDER.clear()
    handles = [scheduler.submit(table, queries[0], label=labels[0])]
    assert scheduler.poll()
    handles += [
        scheduler.submit(table, query, label=label) for query, label in zip(queries[1:], labels[1:])
    ]
    assert scheduler.poll()
    (stream,) = scheduler.board()["streams"]
    assert (stream["riders"], stream["queued"]) == (list(labels), ["covered", "other"])
    assert "riders: wide, covered, other (2 queued)" in render_board(scheduler)
    scheduler.run()
    attaches = {event.query: event.detail for event in flight.RECORDER.events("share.attach")}
    for label in labels[1:]:
        assert attaches[label]["queued"] == attaches[label]["hit"] == 1
        assert attaches[label]["cursor"] == attaches["covered"]["cursor"] > 0
    stats = scheduler.stats()
    assert (stats["share_misses"], stats["share_hits"]) == (1, 2)
    assert stats["shared_io_pages"] == table.file.num_pages + attaches["covered"]["cursor"]
    for handle, query in zip(handles, queries):
        assert_identical(handle.value(), run_scan(table, query))


@pytest.mark.parametrize("bad_first", [False, True], ids=["good-first", "bad-first"])
def test_a_query_naming_an_unknown_attribute_fails_alone(bad_first):
    """Its attributes are queued under the row key too, yet the stream
    its peer opens decodes only what the table has: the peer finishes,
    and the query fails with its own typed error."""
    table = load_table(generate_orders(2_000, seed=38), Layout.ROW)
    queries = {
        "good": ScanQuery("ORDERS", select=("O_CUSTKEY",)),
        "bad": ScanQuery("ORDERS", select=("O_CUSTKEY", "O_NOSUCH")),
    }
    scheduler = Scheduler(max_inflight=1)
    order = ("bad", "good") if bad_first else ("good", "bad")
    handles = {name: scheduler.submit(table, queries[name]) for name in order}
    scheduler.run()
    assert handles["good"].state is QueryState.DONE, handles["good"].error
    assert_identical(handles["good"].result, run_scan(table, queries["good"]))
    assert handles["bad"].state is QueryState.FAILED
    assert isinstance(handles["bad"].error, SchemaError)


def test_boarding_looks_up_only_what_changed():
    """A boarding pass looks up the share keys submitted or opened since
    the last one, never the whole queue: over a batch of queries none
    of which can board (every key its own table), the lookups are
    linear in the batch, not in queue length x admission rounds."""
    tables = [load_table(generate_orders(50, seed=seed), Layout.COLUMN) for seed in range(24)]
    scheduler = Scheduler(max_inflight=2)
    lookups = []
    live_stream = scheduler.manager.live_stream
    scheduler.manager.live_stream = lambda key: lookups.append(key) or live_stream(key)
    handles = [scheduler.submit(table, QUERY) for table in tables]
    scheduler.run()
    assert all(handle.state is QueryState.DONE for handle in handles)
    assert scheduler.manager.misses == len(tables)
    assert len(lookups) <= len(tables)
