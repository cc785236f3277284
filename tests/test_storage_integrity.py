"""End-to-end storage integrity: checksums, retry, salvage, scrub.

The acceptance scenario from the integrity work: inject a bit flip, a
torn write, and a truncation into a persisted table (each layout);
strict opens/queries raise, salvage-mode queries return exactly the
surviving rows with an accurate :class:`CorruptionReport`, transient
faults are retried to success, ``Database.scrub()`` pinpoints every
corrupt page, and v1-format directories still open and query correctly.
"""

import json
import pickle
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.parallel import parallel_query
from repro.engine.plan import scan_plan
from repro.engine.query import ScanQuery
from repro.engine.sharing import SharedScanConsumer, SharedScanStream
from repro.errors import (
    ChecksumError,
    PageFormatError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import (
    FaultPlan,
    drop_trailing_pages,
    flip_bit_on_disk,
    tear_file,
)
from repro.storage import page as page_module
from repro.storage.layout import Layout
from repro.storage.loader import BulkLoader, load_table
from repro.storage.page import (
    PAGE_HEADER_BYTES,
    PAGE_TRAILER_BYTES,
    RowPageCodec,
    assemble_pages,
    downgrade_page_v2,
    page_checksum,
    upgrade_page_v1,
)
from repro.storage.pagefile import PagedFile
from repro.storage.persist import open_table, save_table
from repro.storage.retry import RetryPolicy, retry_io
from repro.storage.scrub import (
    WHOLE_FILE,
    CorruptionReport,
    scrub_directory,
    scrub_table,
    verify_table,
)
from repro.storage.table import ColumnTable
from repro.storage.write_store import WriteOptimizedStore
from repro.testing.chaos import slow_down_table

LAYOUTS = (Layout.ROW, Layout.COLUMN, Layout.PAX)
ROWS = 500


def no_sleep_policy(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=4, sleep=lambda _s: None)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


@pytest.fixture()
def orders():
    return generate_orders(ROWS, seed=11)


@pytest.fixture()
def select(orders):
    return tuple(orders.schema.attribute_names)


def full_scan(table, select, **kwargs):
    return run_scan(table, ScanQuery("ORDERS", select=select), **kwargs)


# --- page checksum unit behavior ---------------------------------------------


class TestPageChecksum:
    def test_checksum_stored_in_trailer(self, orders):
        codec = RowPageCodec(orders.schema)
        page = codec.encode_pages(3, {k: v[:5] for k, v in orders.columns.items()})
        _page_id, crc, _base = struct.unpack("<IIq", page[-PAGE_TRAILER_BYTES:])
        assert crc == page_checksum(page)

    def test_v1_upgrade_roundtrip(self, orders):
        codec = RowPageCodec(orders.schema)
        page = codec.encode_pages(42, {k: v[:5] for k, v in orders.columns.items()})
        v1 = downgrade_page_v2(page)
        # v1 trailers store (page_id, base) as two i64s — no CRC.
        assert struct.unpack("<qq", v1[-PAGE_TRAILER_BYTES:])[0] == 42
        upgraded = upgrade_page_v1(v1)
        assert upgraded == page
        page_id, rows = codec.decode(upgraded)
        assert page_id == 42
        assert len(rows) == 5


# --- retry policy -------------------------------------------------------------


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientIOError("flaky")
            return "ok"

        assert retry_io(flaky, no_sleep_policy()) == "ok"
        assert calls["n"] == 3

    def test_exhaustion_reraises(self):
        def always_fails():
            raise TransientIOError("down")

        with pytest.raises(TransientIOError):
            retry_io(always_fails, no_sleep_policy(max_attempts=2))

    def test_permanent_errors_not_retried(self):
        calls = {"n": 0}

        def corrupt():
            calls["n"] += 1
            raise ChecksumError("bad page")

        with pytest.raises(ChecksumError):
            retry_io(corrupt, no_sleep_policy())
        assert calls["n"] == 1

    def test_backoff_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.010, multiplier=4.0, max_delay=0.050, seed=9)
        delays = [policy.delay_for(i) for i in range(6)]
        assert all(0 < d <= 0.050 for d in delays)
        replay = RetryPolicy(base_delay=0.010, multiplier=4.0, max_delay=0.050, seed=9)
        assert delays == [replay.delay_for(i) for i in range(6)]


# --- in-memory fault plans ----------------------------------------------------


class TestFaultPlan:
    def test_transient_reads_retried_to_success(self, orders, select):
        table = load_table(orders, Layout.ROW)
        table.file.retry_policy = no_sleep_policy()
        plan = FaultPlan(seed=1).schedule_transient_reads(2, page=0)
        plan.wrap_table(table)
        result = full_scan(table, select)
        assert result.num_tuples == ROWS
        assert plan.transient_raised == 2

    def test_transient_exhaustion_raises(self, orders, select):
        table = load_table(orders, Layout.ROW)
        table.file.retry_policy = no_sleep_policy(max_attempts=3)
        plan = FaultPlan(seed=1).schedule_transient_reads(50, page=0)
        plan.wrap_table(table)
        with pytest.raises(TransientIOError):
            full_scan(table, select)
        assert plan.transient_raised == 3  # one per attempt, then gave up

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_bit_flip_strict_vs_salvage(self, orders, select, layout):
        clean = full_scan(load_table(orders, layout), select)

        def faulty_table():
            table = load_table(orders, layout)
            FaultPlan(seed=5).schedule_bit_flip(page=1).wrap_table(table)
            return table

        with pytest.raises(ChecksumError):
            full_scan(faulty_table(), select)

        result = full_scan(faulty_table(), select, salvage=True)
        assert not result.is_complete
        assert result.corruption.faults
        surviving = np.isin(clean.positions, result.positions)
        for name in select:
            np.testing.assert_array_equal(
                result.column(name), clean.column(name)[surviving]
            )

    def test_flip_positions_are_replayable(self, orders):
        table = load_table(orders, Layout.ROW)

        def corrupted_page():
            plan = FaultPlan(seed=33).schedule_bit_flip(page=0)
            return plan.wrap(table.file)._read_page_raw(0)

        assert corrupted_page() == corrupted_page()
        assert corrupted_page() != table.file.read_page(0)


# --- persisted tables under injected damage -----------------------------------


class TestPersistedDamage:
    def save(self, orders, layout, directory):
        table = load_table(orders, layout)
        save_table(table, directory)
        return table

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_acceptance_bit_flip(self, orders, select, tmp_path, layout):
        directory = tmp_path / layout.value
        clean = full_scan(self.save(orders, layout, directory), select)
        pages_file = sorted(directory.glob("*.pages"))[0]
        flip_bit_on_disk(pages_file, byte=pages_file.stat().st_size // 2, bit=6)

        with pytest.raises(ChecksumError):
            full_scan(open_table(directory), select)

        result = full_scan(open_table(directory), select, salvage=True)
        assert not result.is_complete
        surviving = np.isin(clean.positions, result.positions)
        for name in select:
            np.testing.assert_array_equal(
                result.column(name), clean.column(name)[surviving]
            )
        assert (
            clean.num_tuples - result.num_tuples
            <= result.corruption.estimated_rows_lost
        )

        # scrub_directory pinpoints the damaged file.
        report = scrub_directory(directory)
        assert not report.is_clean
        assert any(fault.page != WHOLE_FILE for fault in report.faults)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_acceptance_torn_write(self, orders, select, tmp_path, layout):
        directory = tmp_path / layout.value
        self.save(orders, layout, directory)
        torn = sorted(directory.glob("*.pages"))[-1]
        tear_file(torn, page_size=4096)

        with pytest.raises(StorageError):
            open_table(directory)

        report = CorruptionReport()
        table = open_table(directory, salvage=report)
        assert not report.is_clean
        assert report.estimated_rows_lost > 0
        result = full_scan(table, select, salvage=True)
        # Open-time accounting covers the torn tail exactly: what the
        # salvage scan returns plus what the report wrote off is the table.
        assert result.num_tuples + report.estimated_rows_lost == ROWS

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_acceptance_truncation(self, orders, select, tmp_path, layout):
        directory = tmp_path / layout.value
        self.save(orders, layout, directory)
        target = sorted(directory.glob("*.pages"))[-1]
        drop_trailing_pages(target, page_size=4096, pages=1)

        with pytest.raises(StorageError, match="truncated|torn"):
            open_table(directory)

        report = CorruptionReport()
        table = open_table(directory, salvage=report)
        assert len(report.faults) >= 1
        assert all("missing" in fault.error for fault in report.faults)
        result = full_scan(table, select, salvage=True)
        assert result.num_tuples + report.estimated_rows_lost == ROWS

    def test_transient_faults_on_open_are_retried(self, orders, tmp_path):
        directory = tmp_path / "t"
        self.save(orders, Layout.ROW, directory)
        attempts = {"n": 0}

        def flaky_sleep(_seconds):
            attempts["n"] += 1

        table = open_table(directory, retry_policy=no_sleep_policy(sleep=flaky_sleep))
        assert table.num_rows == ROWS


# --- format versioning --------------------------------------------------------


def rewrite_as_v1(directory) -> None:
    """Demote a saved v2 directory to the legacy v1 on-disk format."""
    for pages_path in directory.glob("*.pages"):
        data = pages_path.read_bytes()
        pages_path.write_bytes(
            b"".join(
                downgrade_page_v2(data[start : start + 4096])
                for start in range(0, len(data), 4096)
            )
        )
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 1
    del meta["meta_crc32"]
    meta_path.write_text(json.dumps(meta, indent=2))


class TestFormatVersions:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_v1_directories_open_transparently(
        self, orders, select, tmp_path, layout
    ):
        directory = tmp_path / layout.value
        table = load_table(orders, layout)
        save_table(table, directory)
        clean = full_scan(table, select)
        rewrite_as_v1(directory)

        reopened = open_table(directory)
        result = full_scan(reopened, select)
        assert result.num_tuples == ROWS
        for name in select:
            np.testing.assert_array_equal(result.column(name), clean.column(name))
        # And the in-memory pages now carry valid v2 checksums.
        assert scrub_table(reopened).is_clean

    def test_unknown_version_rejected(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.ROW), directory)
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="version"):
            open_table(directory)


# --- crash-safe save and metadata integrity -----------------------------------


class TestAtomicSave:
    def test_no_staging_dir_left_behind(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.COLUMN), directory)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_overwrite_replaces_table(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.ROW), directory)
        bigger = generate_orders(ROWS * 2, seed=11)
        save_table(load_table(bigger, Layout.ROW), directory)
        assert open_table(directory).num_rows == ROWS * 2

    def test_half_written_meta_detected(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.ROW), directory)
        meta_path = directory / "meta.json"
        text = meta_path.read_text()
        meta_path.write_text(text[: len(text) // 2])  # crash mid-write
        with pytest.raises(StorageError, match="corrupt or half-written"):
            open_table(directory)

    def test_meta_field_tamper_detected(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.ROW), directory)
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["num_rows"] = ROWS + 1  # valid JSON, wrong content
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            open_table(directory)

    def test_missing_meta_checksum_detected(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.ROW), directory)
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["meta_crc32"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ChecksumError, match="no checksum"):
            open_table(directory)

    def test_missing_page_file(self, orders, tmp_path):
        directory = tmp_path / "t"
        save_table(load_table(orders, Layout.COLUMN), directory)
        sorted(directory.glob("*.pages"))[0].unlink()
        with pytest.raises(StorageError, match="missing"):
            open_table(directory)
        report = CorruptionReport()
        open_table(directory, salvage=report)
        assert not report.is_clean


# --- database facade ----------------------------------------------------------


class TestDatabaseIntegrity:
    def test_scrub_clean_and_verify(self, orders):
        db = Database()
        db.create_table(orders)
        db.create_view("ORDERS", ("O_ORDERDATE", "O_TOTALPRICE"), name="V1")
        reports = db.scrub()
        assert set(reports) == {"ORDERS:row", "ORDERS:column", "ORDERS:V1"}
        assert all(report.is_clean for report in reports.values())
        assert db.verify() == sum(r.pages_scanned for r in reports.values())

    def test_scrub_pinpoints_injected_faults(self, orders):
        db = Database()
        db.create_table(orders)
        victim = db.table("ORDERS", Layout.COLUMN)
        FaultPlan(seed=2).schedule_bit_flip(
            page=0, file="ORDERS.O_CUSTKEY"
        ).wrap_table(victim)
        reports = db.scrub("ORDERS")
        dirty = {k: v for k, v in reports.items() if not v.is_clean}
        assert list(dirty) == ["ORDERS:column"]
        (fault,) = dirty["ORDERS:column"].faults
        assert fault.file == "ORDERS.O_CUSTKEY"
        assert fault.page == 0
        with pytest.raises(ChecksumError, match="verification failed"):
            db.verify()

    @pytest.mark.parametrize("fault", ["short", "misplaced"])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda layout: layout.name)
    def test_scrub_pinpoints_short_and_misplaced_pages(self, orders, layout, fault):
        """A CRC-valid page that claims fewer entries than its nominal
        span, or a copy of another page at its slot, is named by scrub
        on every layout, and fails ``verify()``."""
        db = Database(layouts=LAYOUTS)
        db.create_table(orders)
        file = max(_files(db.table("ORDERS", layout)), key=lambda file: file.num_pages)
        assert file.num_pages >= 2
        if fault == "short":
            _claiming(file, 1, 10)
        else:
            _misplacing(file, 1, 0)
        reports = db.scrub("ORDERS")
        dirty = {k: v for k, v in reports.items() if not v.is_clean}
        assert list(dirty) == [f"ORDERS:{layout.name.lower()}"]
        (found,) = dirty[f"ORDERS:{layout.name.lower()}"].faults
        named = "page 1 claims 10 entries" if fault == "short" else "page 1 holds page 0"
        assert (found.file, found.page) == (file.name, 1) and found.error.startswith(named)
        with pytest.raises(ChecksumError, match="verification failed"):
            db.verify()

    def test_salvage_query_through_facade(self, orders, select):
        db = Database()
        db.create_table(orders)
        FaultPlan(seed=3).schedule_bit_flip(page=0).wrap_table(
            db.table("ORDERS", Layout.ROW)
        )
        with pytest.raises(ChecksumError):
            db.query("ORDERS", select=select, layout=Layout.ROW)
        result = db.query("ORDERS", select=select, layout=Layout.ROW, salvage=True)
        assert not result.is_complete
        assert 0 < result.num_tuples < ROWS

    @pytest.mark.parametrize("door", ["run_scan", "parallel_query", "Database.query"])
    def test_salvage_leaves_the_callers_context_strict(self, orders, select, door):
        """A salvage call runs under a copy of the caller's context: the
        skipped page lands in the caller's report, and the caller's next
        query is strict again."""
        db = Database(layouts=(Layout.ROW,))
        db.create_table(orders)
        table = db.table("ORDERS")
        table.file.corrupt(0, 97)
        query = ScanQuery("ORDERS", select=select)
        context = ExecutionContext()
        salvage = {
            "run_scan": lambda: run_scan(table, query, context, salvage=True),
            "parallel_query": lambda: parallel_query(
                table, query, context=context, salvage=True
            ),
            "Database.query": lambda: db.query(
                "ORDERS", select=select, context=context, salvage=True
            ),
        }[door]
        assert 0 < salvage().num_tuples < ROWS
        assert not context.corruption.is_clean
        assert context.strict_integrity
        with pytest.raises(ChecksumError):
            db.query("ORDERS", select=select, context=context)


# --- loader / write-store verification hooks ----------------------------------


class TestVerificationHooks:
    def test_loader_verify_sweeps_every_page(self, orders):
        table = BulkLoader(verify=True).load(orders, Layout.COLUMN)
        assert verify_table(table).pages_scanned > 0

    def test_merge_with_verify(self, orders):
        table = load_table(orders, Layout.COLUMN)
        store = WriteOptimizedStore(orders.schema)
        store.attach_base(table.num_rows)
        store.insert(tuple(orders.columns[n][0] for n in orders.schema.attribute_names))
        merged = store.merge_into(table, verify=True)
        assert merged.num_rows == ROWS + 1


# --- paged file invariants ----------------------------------------------------


class TestPagedFileInvariants:
    def test_from_bytes_rejects_partial_page(self):
        with pytest.raises(StorageError, match="partial page"):
            PagedFile.from_bytes("t", b"\x00" * 5000, page_size=4096)

    def test_read_past_end(self):
        file = PagedFile.from_bytes("t", b"\x00" * 8192, page_size=4096)
        with pytest.raises(StorageError):
            file.read_page(2)
        with pytest.raises(StorageError):
            file.read_page(-1)

    def test_truncated_page_decode(self, orders):
        codec = RowPageCodec(orders.schema)
        page = codec.encode_pages(0, {k: v[:3] for k, v in orders.columns.items()})
        with pytest.raises(PageFormatError):
            codec.decode(page[:128])


# --- a page is checked once per load ------------------------------------------


def _claiming(file: PagedFile, page: int, claim: int) -> None:
    """Rewrite ``page`` of a resident file as a CRC-valid page that
    claims ``claim`` entries, its payload and trailer base kept."""
    size = file.page_size
    data = file.read_page(page)
    _page_id, _crc, base = struct.unpack_from("<IIq", data, size - PAGE_TRAILER_BYTES)
    payload = data[PAGE_HEADER_BYTES : size - PAGE_TRAILER_BYTES]
    file._data[page * size : (page + 1) * size] = assemble_pages(size, page, [claim], [payload], base)


def _misplacing(file: PagedFile, page: int, source: int) -> None:
    """Copy page ``source`` of a resident file, CRC and trailer id kept,
    over slot ``page``."""
    size = file.page_size
    file._data[page * size : (page + 1) * size] = file.read_page(source)


def _files(table) -> list[PagedFile]:
    if isinstance(table, ColumnTable):
        return [column_file.file for column_file in table.column_files.values()]
    return [table.file]


def _verified(table) -> int:
    return sum(file.verified(range(file.num_pages)) for file in _files(table))


def _pages(table) -> int:
    return sum(file.num_pages for file in _files(table))


class _Checks:
    """Page CRCs computed since last asked: two ``crc32`` calls each."""

    def __init__(self, monkeypatch):
        self._calls = 0
        real = zlib.crc32

        def crc32(*args):
            self._calls += 1
            return real(*args)

        monkeypatch.setattr(page_module, "zlib", SimpleNamespace(crc32=crc32))

    def take(self) -> int:
        taken, self._calls = self._calls // 2, 0
        return taken


@pytest.mark.parametrize("layout", LAYOUTS)
class TestVerifiedOncePerLoad:
    """A scan checks a page's CRC the first time it reads it after the
    load; the exceptions — wrappers, scrub and verify, checks switched
    off, an unpickled file — check as before."""

    def test_a_page_is_checked_on_its_first_read(self, orders, select, layout, monkeypatch):
        table = load_table(orders, layout)
        checks = _Checks(monkeypatch)
        full_scan(table, select)
        assert checks.take() == _pages(table) == _verified(table)
        full_scan(table, select)
        assert checks.take() == 0
        # Scrub and verify look at every page, whatever the file says.
        assert scrub_table(table).is_clean
        assert checks.take() == _pages(table)
        verify_table(table)
        assert checks.take() == _pages(table)

    @pytest.mark.parametrize("wrapper", ["faulty", "slow"])
    def test_a_wrapper_checks_every_read(self, orders, select, layout, wrapper, monkeypatch):
        table = load_table(orders, layout)
        inner = _files(table)
        full_scan(table, select)
        assert _verified(table) == _pages(table)
        plan = FaultPlan(seed=5)
        if wrapper == "faulty":
            plan.wrap_table(table)
        else:
            slow_down_table(table, 0.0)
        checks = _Checks(monkeypatch)
        for _scan in range(2):
            full_scan(table, select)
            assert checks.take() == _pages(table)
        assert _verified(table) == 0
        # A flip the wrapper hands back, or one in the buffer it shares.
        if wrapper == "faulty":
            plan.schedule_bit_flip(page=0, byte=97, bit=0)
        else:
            inner[0].corrupt(0, 97)
        for _scan in range(2):
            with pytest.raises(ChecksumError):
                full_scan(table, select)

    def test_an_unpickled_file_is_freshly_loaded(self, orders, select, layout, monkeypatch):
        table = load_table(orders, layout)
        full_scan(table, select)
        shipped = pickle.loads(pickle.dumps(table))
        assert _verified(table) == _pages(table)
        assert _verified(shipped) == 0
        file = _files(table)[0]
        assert pickle.loads(pickle.dumps(file)).verified(range(file.num_pages)) == 0
        checks = _Checks(monkeypatch)
        full_scan(shipped, select)
        assert checks.take() == _pages(shipped)

    def test_no_view_of_a_file_outlives_its_decode(self, orders, select, layout):
        """A unit is a view of its file's buffer, and a live view would
        make growing the file a ``BufferError``: none outlives its decode
        — not in a result, a suspended scan or a stream mid-pass, nor
        where a failing unit is decoded page by page."""
        table = load_table(orders, layout)
        query = ScanQuery("ORDERS", select=select)
        result = run_scan(table, query)
        max(_files(table), key=len).corrupt(1, 97)
        suspended = scan_plan(ExecutionContext(strict_integrity=False), table, query)
        suspended.open()
        assert suspended.next(1) is not None
        stream = SharedScanStream(table, query.scan_attributes(), False)
        rider = SharedScanConsumer(ExecutionContext(strict_integrity=False), stream, query)
        rider.open()
        assert rider.advance()
        for file in _files(table):
            file.append_pages(file.read_page(0))
        assert result.num_tuples == ROWS
