"""Scans at I/O-unit granularity: the unit path against the page path.

Three contracts of the unit-granular scan core (DESIGN.md, "Scan core"),
for row files and for column files:

* **decode** — ``decode_unit`` over k pages is the concatenation of k
  ``decode_page`` calls, for every codec kind, packed width, bit offset,
  partial last page and attribute subset; the bit kernels agree with the
  old (n x bits) bit-matrix implementation, which lives on *here* as the
  reference, and encode keeps the stored bytes identical to it;
* **integrity** — a bit flip and a twice-transient page in the middle of
  a unit behave exactly as under a page-at-a-time scan (a context whose
  I/O unit is one page): the fault names its page, every other page's
  rows survive, nothing is read twice, every touched page is timed once;
* **release** — a row unit's pages are released as one batch, or as
  many of them as the consumer's demand reaches (``next(want)``), each
  page's checkpoint passed before it is charged: a scan under a
  ``Limit`` has the events, faults and checkpoints of the page-at-a-time
  scan, a cancel or a deadline surfaces as the typed error with no
  partial result and exactly the pages passed charged, and a finished
  scan has passed as many checkpoints as the golden pin says.
  A column scan runs whole inside its first ``next()``; its checkpoints
  still come one per logical page, each before that page is charged.
"""

from __future__ import annotations

import functools
import gc
import json
import time
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.bitpack import gather_bits, pack_bits, unpack_bits
from repro.compression.registry import build_codec, build_codec_for_values
from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.tpch import apply_fig5_compression, generate_lineitem, orders_schema
from repro.design.materialize import materialize_view
from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan, run_scan
from repro.engine.governance import QueryContext
from repro.engine.operators import Limit
from repro.engine.plan import scan_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer, SharedScanStream
from repro.errors import (
    ChecksumError,
    CompressionError,
    MemoryBudgetExceeded,
    PageFormatError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.obs import metrics
from repro.obs import recorder as flight
from repro.storage.faults import FaultPlan, drop_trailing_pages
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.page import PAGE_HEADER_BYTES
from repro.storage.pagefile import PagedFile
from repro.storage.persist import open_table, save_table
from repro.storage.retry import RetryPolicy
from repro.storage.scrub import CorruptionReport
from repro.storage.table import PaxTable, RowTable, build_column_file
from repro.types.datatypes import FixedTextType, IntType
from repro.types.schema import Attribute, TableSchema
from tests.scan_golden import (
    CORRUPT_PAGES,
    GOLDEN_PATH,
    SCANNERS,
    WINDOWS,
    _queries,
    _record,
    _run_scan,
)
from tests.test_scan_sharing import _coded_orders

# --- the old bit-matrix kernels, kept as the reference ------------------------


def reference_pack_bits(values: np.ndarray, bits: int) -> bytes:
    """``pack_bits`` as it was: an (n x bits) matrix of bits, LSB first."""
    if values.size == 0:
        return b""
    shifts = np.arange(bits, dtype=np.uint64)
    bit_matrix = (values.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)
    return np.packbits(bit_matrix.astype(np.uint8).reshape(-1), bitorder="little").tobytes()


def reference_unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """``unpack_bits`` as it was: unpackbits -> (n x bits) -> multiply-sum."""
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    flat = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), bitorder="little", count=count * bits
    )
    weights = np.left_shift(np.uint64(1), np.arange(bits, dtype=np.uint64))
    return (flat.reshape(count, bits).astype(np.uint64) * weights).sum(axis=1).astype(np.int64)


def reference_encode_row_page(page_codec, page_id: int, columns: dict) -> bytes:
    """``CompressedRowPageCodec.encode`` as it was: per-attribute payload
    bits pasted into a (tuples x stride*8) bit matrix."""
    from repro.storage.page import _assemble
    from repro.storage.rowz import _BASE_SLOT

    count = len(next(iter(columns.values())))
    bit_matrix = np.zeros((count, page_codec.stride * 8), dtype=np.uint8)
    bases = []
    for index, attr in enumerate(page_codec.schema):
        codec = page_codec._codecs[index]
        payload, state = codec.encode_page(columns[attr.name])
        if index in page_codec._frame_attrs:
            bases.append(state.base)
        bits = codec.bits_per_value
        start = page_codec._bit_offsets[index]
        bit_matrix[:, start : start + bits] = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8), bitorder="little", count=count * bits
        ).reshape(count, bits)
    packed = np.packbits(bit_matrix.reshape(-1), bitorder="little").tobytes()
    base_area = b"".join(_BASE_SLOT.pack(base) for base in bases)
    body = packed.ljust(page_codec._payload_bytes, b"\x00") + base_area
    return _assemble(page_codec.page_size, count, body, page_id, 0)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 63),
    count=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    trailing=st.integers(0, 9),
)
def test_bit_kernels_match_the_bit_matrix_reference(bits, count, seed, trailing):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << bits, count, dtype=np.uint64).astype(np.int64)
    packed = pack_bits(values, bits)
    assert packed == reference_pack_bits(values, bits)
    # Page payloads carry padding (and garbage, as far as a codec knows).
    stream = packed + bytes(rng.integers(0, 256, trailing, dtype=np.uint8))
    unpacked = unpack_bits(stream, bits, count)
    assert unpacked.dtype == np.int64
    np.testing.assert_array_equal(unpacked, reference_unpack_bits(stream, bits, count))
    np.testing.assert_array_equal(unpacked, values)


# --- decode_unit == concatenated decode_page ----------------------------------

PAGE_SIZE = 256

#: Attribute kinds the property draws: integer codecs get a packed width.
INT_KINDS = ("none", "pack", "dict", "for", "for-delta")
TEXT_KINDS = ("text-none", "text-pack", "text-dict")


def _int_attribute(rng, name: str, kind: str, bits: int, rows: int, ordered: bool):
    """``(Attribute, values)`` of one integer column packed ``bits`` wide.

    Values are drawn so the codec *needs* at most ``bits`` bits (FOR
    deltas span twice a value range, FOR-delta steps twice again); the
    spec then stores them exactly ``bits`` wide.  Unordered data gives
    the frame codecs negative deltas, i.e. zig-zag.
    """
    if kind == "none":
        values = rng.integers(-(2**31), 2**31, rows)
        return Attribute(name, IntType()), values
    if kind == "pack":
        values = rng.integers(0, 1 << min(bits, 62), rows)
    elif kind == "dict":
        domain = rng.integers(-(2**31), 2**31, min(1 << min(bits, 4), 12))
        values = rng.choice(np.unique(domain), rows)
    else:
        span = 1 << max(0, min(bits, 44) - (2 if kind == "for" else 3))
        values = 1_000_000 + rng.integers(0, span, rows)
    if ordered:
        values = np.sort(values)
    codec_kind = CodecKind(kind)
    needed = build_codec_for_values(codec_kind, IntType(), values).spec if rows else None
    if needed is None:
        dictionary = (0,) if kind == "dict" else ()
        spec = CodecSpec(codec_kind, bits=bits, dictionary=dictionary)
    else:
        assert needed.bits <= bits, (kind, needed, bits)
        spec = CodecSpec(
            codec_kind, bits=bits, dictionary=needed.dictionary, zigzag=needed.zigzag
        )
    return Attribute(name, IntType(), spec), values


def _text_attribute(rng, name: str, kind: str, width: int, rows: int):
    lengths = rng.integers(0, width + 1, rows)
    words = [bytes(rng.integers(97, 123, n, dtype=np.uint8)) for n in lengths]
    if kind == "text-dict":
        words = [words[i % 3] for i in range(rows)]
    values = np.array(words, dtype=f"S{width}") if rows else np.zeros(0, dtype=f"S{width}")
    attr_type = FixedTextType(width)
    if kind == "text-none" or not rows:
        return Attribute(name, attr_type), values
    codec_kind = CodecKind.DICT if kind == "text-dict" else CodecKind.PACK
    spec = build_codec_for_values(codec_kind, attr_type, values).spec
    return Attribute(name, attr_type, spec), values


def _build_row_table(schema: TableSchema, columns: dict, rows: int) -> RowTable:
    """Encode pages straight through the page codec (no loader checks)."""
    table = RowTable(schema, PagedFile(schema.name, PAGE_SIZE), rows, PAGE_SIZE)
    capacity = table.page_codec.tuples_per_page
    for start in range(0, rows, capacity):
        chunk = {name: col[start : start + capacity] for name, col in columns.items()}
        table.file.append_page(table.page_codec.encode(table.file.num_pages, chunk))
    return table


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(INT_KINDS + TEXT_KINDS),
    bits=st.integers(1, 63),
    shift=st.integers(1, 9),
    rows=st.integers(0, 90),
    ordered=st.booleans(),
    subset=st.sets(st.sampled_from(("lead", "probe", "tail")), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_unit_is_the_concatenation_of_page_decodes(
    kind, bits, shift, rows, ordered, subset, seed
):
    """Every codec kind x width 1-63 x zig-zag x bit offset x partial
    last page x empty file x attribute subset, on compressed row pages."""
    rng = np.random.default_rng(seed)
    # A ``shift``-bit lead column puts the probed one at any bit offset.
    lead, lead_values = _int_attribute(rng, "lead", "pack", shift, rows, False)
    if kind in INT_KINDS:
        probe, probe_values = _int_attribute(rng, "probe", kind, bits, rows, ordered)
    else:
        probe, probe_values = _text_attribute(rng, "probe", kind, 1 + bits % 12, rows)
    tail, tail_values = _int_attribute(rng, "tail", "for-delta", 7, rows, True)
    schema = TableSchema("T", (lead, probe, tail))
    columns = {"lead": lead_values, "probe": probe_values, "tail": tail_values}
    table = _build_row_table(schema, columns, rows)
    attrs = tuple(sorted(subset))
    pages = table.file.num_pages
    np.testing.assert_array_equal(table.read_column("probe"), probe_values)
    if not pages:
        # The empty file: nothing to read, and an empty unit is refused.
        with pytest.raises(PageFormatError):
            table.decode_unit(b"", attrs)
        return

    unit = table.file.read_pages(0, pages)
    counts, unit_columns = table.decode_unit(unit, attrs)
    singly = [table.decode_page(table.file.read_page(i), attrs) for i in range(pages)]
    assert counts.tolist() == [count for count, _columns in singly]
    assert set(unit_columns) == set(attrs)
    for name in attrs:
        joined = np.concatenate([page_columns[name] for _count, page_columns in singly])
        assert unit_columns[name].dtype == joined.dtype
        np.testing.assert_array_equal(unit_columns[name], joined)
        np.testing.assert_array_equal(unit_columns[name], columns[name])

    # Stored bytes are what the bit-matrix encoder produced ...
    page_codec = table.page_codec
    capacity = page_codec.tuples_per_page
    first = {name: col[:capacity] for name, col in columns.items()}
    assert table.file.read_page(0) == reference_encode_row_page(page_codec, 0, first)
    # ... and an integer attribute's codes, gathered at its bit offset,
    # are what the bit matrix finds there.
    codec = build_codec(probe.spec, probe.attr_type)
    if not codec.text_codes:
        width = codec.bits_per_value
        offset = shift  # after the lead column
        geometry = ((pages, capacity), (PAGE_SIZE, page_codec.stride))
        gathered = gather_bits(unit, *geometry, 8 * PAGE_HEADER_BYTES + offset, width)
        count = int(counts[0])
        tuples = np.unpackbits(
            np.frombuffer(unit, dtype=np.uint8, offset=PAGE_HEADER_BYTES),
            bitorder="little",
            count=count * page_codec.stride * 8,
        ).reshape(count, page_codec.stride * 8)
        field_bits = np.packbits(
            tuples[:, offset : offset + width].reshape(-1), bitorder="little"
        ).tobytes()
        np.testing.assert_array_equal(
            gathered[0, :count], reference_unpack_bits(field_bits, width, count)
        )


@pytest.mark.parametrize("table_class", [RowTable, PaxTable])
def test_plain_pages_decode_by_unit_as_by_page(table_class):
    """The uncompressed row codec and PAX ride the same unit interface."""
    data = generate_lineitem(700, seed=5)
    table = load_table(data, Layout.ROW if table_class is RowTable else Layout.PAX)
    attrs = ("L_SHIPMODE", "L_PARTKEY", "L_COMMENT")
    unit = table.file.read_pages(0, table.file.num_pages)
    counts, columns = table.decode_unit(unit, attrs)
    assert int(counts.sum()) == 700 and list(columns) == list(attrs)
    for name in attrs:
        np.testing.assert_array_equal(columns[name], data.columns[name])
        np.testing.assert_array_equal(columns[name], table.read_column(name))


def test_decode_page_decodes_only_the_attributes_asked_for():
    for data in (generate_lineitem(60, seed=2), apply_fig5_compression(generate_lineitem(60, seed=2))):
        table = load_table(data, Layout.ROW)
        page = table.file.read_page(0)
        count, columns = table.decode_page(page, ("L_TAX", "L_ORDERKEY"))
        assert list(columns) == ["L_TAX", "L_ORDERKEY"]
        # No attribute list still means every column (scrub, the spine).
        _page_id, same_count, every = table.page_codec.decode_columns(page)
        assert same_count == count and set(every) == set(data.schema.attribute_names)
        for name, column in columns.items():
            np.testing.assert_array_equal(column, every[name])


# --- column files: the same contract -------------------------------------------


def _build_column_file(attribute: Attribute, values: np.ndarray, page_size: int):
    """Encode pages straight through the column page codec."""
    column_file = build_column_file(TableSchema("C", (attribute,)), attribute.name, page_size)
    capacity = column_file.values_per_page
    for start in range(0, len(values), capacity):
        page_id = column_file.file.num_pages
        page = column_file.page_codec.encode(page_id, values[start : start + capacity])
        column_file.file.append_page(page)
    return column_file


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(INT_KINDS + TEXT_KINDS),
    bits=st.integers(1, 63),
    rows=st.integers(1, 400),
    page_size=st.sampled_from((64, 256)),
    ordered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_decode_unit_is_the_concatenation_of_page_decodes(
    kind, bits, rows, page_size, ordered, seed
):
    """Every codec kind x width 1-63 x zig-zag x short last page x
    one-page unit, values and codes, whole and gathered by position."""
    rng = np.random.default_rng(seed)
    if kind in INT_KINDS:
        attribute, values = _int_attribute(rng, "probe", kind, bits, rows, ordered)
    else:
        attribute, values = _text_attribute(rng, "probe", kind, 1 + bits % 12, rows)
    column_file = _build_column_file(attribute, values, page_size)
    file = column_file.file
    pages = file.num_pages
    singly = [column_file.decode_page(file.read_page(i)) for i in range(pages)]
    np.testing.assert_array_equal(np.concatenate(singly), values)

    # Any run of adjacent pages is a unit: the whole file, its first
    # page alone, and the tail from a random page on.
    for first, count in {(0, pages), (0, 1), (start := int(rng.integers(pages)), pages - start)}:
        unit = file.read_pages(first, count)
        counts, decoded = column_file.decode_unit(unit)
        joined = np.concatenate(singly[first : first + count])
        assert counts.tolist() == [len(page) for page in singly[first : first + count]]
        assert decoded.dtype == joined.dtype
        np.testing.assert_array_equal(decoded, joined)
        # Codes are unpacked as far as the unit's fullest page and no further.
        assert column_file.page_codec.decode_unit(unit)[2].shape == (count, counts.max())

        # Positions: one fancy index into the unit, equal to the
        # page-by-page selective decode.
        wanted = np.flatnonzero(rng.random(len(joined)) < 0.3)
        ends = np.cumsum(counts)
        on_page = np.searchsorted(ends, wanted, side="right")
        in_page = wanted - (ends - counts)[on_page]
        same_counts, gathered = column_file.gather_unit(unit, on_page, in_page)
        assert same_counts.tolist() == counts.tolist()
        assert gathered.dtype == joined.dtype
        np.testing.assert_array_equal(gathered, joined[wanted])
        for page in range(count):
            here = in_page[on_page == page]
            page_count, page_values = column_file.gather_unit(
                file.read_page(first + page), np.zeros_like(here), here
            )
            assert page_count.tolist() == [counts[page]]
            np.testing.assert_array_equal(page_values, gathered[on_page == page])

    # Padding past a short last page's count is never a value.
    last = np.array([pages - 1])
    with pytest.raises(CompressionError):
        column_file.gather_unit(file.read_pages(0, pages), last, np.array([len(singly[-1])]))
    with pytest.raises(CompressionError):
        column_file.gather_unit(file.read_page(pages - 1), 0 * last, np.array([len(singly[-1])]))

    if kind in ("pack", "dict", "for", "for-delta", "text-dict"):
        # The undecoded codes (compressed execution compares them).
        _counts, codes = column_file.decode_unit(file.read_pages(0, pages), codes=True)
        by_page = [column_file.decode_page(file.read_page(i), codes=True) for i in range(pages)]
        np.testing.assert_array_equal(codes, np.concatenate(by_page))
        if kind in ("dict", "text-dict"):
            dictionary = column_file.page_codec.codec.dictionary
            np.testing.assert_array_equal(dictionary[codes], values)


@pytest.mark.parametrize("dataset", ["plain", "z"])
def test_fig5_column_files_decode_by_unit_as_by_page(dataset):
    """LINEITEM and LINEITEM-Z as loaded: every Fig-5 codec, identity
    integers and text, text-pack, 4 KB pages, units of 32 pages."""
    data = generate_lineitem(4_000, seed=5)
    data = apply_fig5_compression(data) if dataset == "z" else data
    table = load_table(data, Layout.COLUMN)
    for name, column_file in table.column_files.items():
        file = column_file.file
        units = [
            file.read_pages(first, min(32, file.num_pages - first))
            for first in range(0, file.num_pages, 32)
        ]
        column = np.concatenate([column_file.decode_unit(unit)[1] for unit in units])
        np.testing.assert_array_equal(column, data.columns[name])
        assert column.dtype == table.read_column(name).dtype


def test_a_unit_that_cannot_be_flattened_is_refused():
    """RLE pages, a corrupt page, a ragged buffer and an interior short
    page raise without naming a page: the caller goes page by page."""
    view = materialize_view(
        generate_lineitem(ROWS, seed=77),
        ("L_QUANTITY", "L_SUPPKEY"),
        sort_key="L_QUANTITY",
        compress=True,
        use_rle=True,
        page_size=64,
    )
    rle = view.table.column_file("L_QUANTITY")
    assert rle.is_variable and rle.file.num_pages > 1
    with pytest.raises(CompressionError, match="no fixed-width codes"):
        rle.decode_unit(rle.file.read_pages(0, 2))

    dense = view.table.column_file("L_SUPPKEY")
    unit = dense.file.read_pages(0, 3)
    flipped = bytearray(unit)
    flipped[64 + 11] ^= 1 << 3
    with pytest.raises(ChecksumError):
        dense.decode_unit(bytes(flipped))
    with pytest.raises(PageFormatError):
        dense.decode_unit(unit[:-1])
    with pytest.raises(PageFormatError):
        dense.decode_unit(b"")
    # The (short) last page in front of a full one: not dense.
    last = dense.file.read_page(dense.file.num_pages - 1)
    with pytest.raises(PageFormatError, match="not dense"):
        dense.decode_unit(last + unit[:64])


# --- faults in the middle of a unit -------------------------------------------

ROWS = 3_000
FLIPPED, FLAKY = 33, 35  # both inside the second 32-page unit (LINEITEM-Z has 38 pages)


def _page_at_a_time() -> ExecutionContext:
    """A context whose I/O unit is one page: the page-at-a-time scan."""
    calibration = DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=4096)
    return ExecutionContext(calibration=calibration, governance=QueryContext())


def _unit_at_a_time() -> ExecutionContext:
    return ExecutionContext(governance=QueryContext())


def _faulty_row_table(data):
    table = load_table(data, Layout.ROW)
    table.file.retry_policy = RetryPolicy(sleep=lambda _seconds: None)
    plan = FaultPlan(seed=9)
    plan.schedule_bit_flip(FLIPPED, byte=11, bit=3)
    plan.schedule_transient_reads(2, page=FLAKY)
    plan.wrap_table(table)
    return table, plan


def _outcome(result, context) -> dict:
    return {
        "events": result.events.as_dict(),
        "positions": result.positions.tolist(),
        "columns": {name: column.tolist() for name, column in result.columns.items()},
        "faults": [(f.file, f.page, f.rows_lost) for f in result.corruption.faults],
        "pages_scanned": result.corruption.pages_scanned,
        "ticks": context.governance.ticks,
    }


@pytest.fixture()
def fresh_telemetry():
    metrics.enable()
    metrics.REGISTRY.reset_values()
    flight.enable()
    flight.RECORDER.clear()
    yield
    metrics.REGISTRY.reset_values()
    flight.RECORDER.clear()


@pytest.mark.parametrize("dataset", ["plain", "z"])
class TestFaultsMidUnit:
    @pytest.fixture()
    def data(self, dataset):
        plain = generate_lineitem(ROWS, seed=77)
        return apply_fig5_compression(plain) if dataset == "z" else plain

    @staticmethod
    def _query(data) -> ScanQuery:
        predicate = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 0.4)
        return ScanQuery(
            data.schema.name,
            select=("L_ORDERKEY", "L_PARTKEY", "L_SHIPMODE"),
            predicates=(predicate,),
        )

    def test_salvage_names_the_page_and_keeps_the_rest(self, data, fresh_telemetry):
        query = self._query(data)
        clean = run_scan(load_table(data, Layout.ROW), query)
        metrics.REGISTRY.reset_values()
        table, plan = _faulty_row_table(data)
        assert table.file.num_pages > FLAKY  # both faults sit mid-table
        context = _unit_at_a_time()
        result = run_scan(table, query, context, salvage=True)

        capacity = table.page_codec.tuples_per_page
        assert [(f.page, f.rows_lost) for f in result.corruption.faults] == [
            (FLIPPED, capacity)
        ]
        lost = (clean.positions >= FLIPPED * capacity) & (
            clean.positions < (FLIPPED + 1) * capacity
        )
        assert lost.any()
        np.testing.assert_array_equal(result.positions, clean.positions[~lost])
        for name in query.select:
            np.testing.assert_array_equal(result.column(name), clean.column(name)[~lost])
        # Faults were injected, retried and counted per page, once: the
        # unit's bytes are not read again to find the bad page.
        assert plan.transient_raised == 2
        assert plan.pages_corrupted == 1
        assert metrics.RETRY_ATTEMPTS.value == 2
        assert metrics.PAGES_SALVAGED.value == 1
        assert len(flight.RECORDER.events(kind="storage.salvage")) == 1
        assert result.events.pages_touched == table.file.num_pages - 1
        assert metrics.PAGE_DECODE_SECONDS.count == result.events.pages_touched

        # Differential: the page-at-a-time scan of the same faults.
        reference_table, _plan = _faulty_row_table(data)
        reference_context = _page_at_a_time()
        reference = run_scan(reference_table, query, reference_context, salvage=True)
        assert _outcome(result, context) == _outcome(reference, reference_context)

    def test_strict_raises_the_pages_checksum_error(self, data):
        query = self._query(data)
        messages = []
        for context in (_unit_at_a_time(), _page_at_a_time()):
            table, _plan = _faulty_row_table(data)
            with pytest.raises(ChecksumError, match=f"page {FLIPPED} checksum") as raised:
                run_scan(table, query, context)
            messages.append((str(raised.value), context.governance.ticks > 0))
        assert messages[0] == messages[1]

    def test_unreadable_page_is_dropped_alone(self, data):
        """Retries exhausted: the unit before ends short of the page, and
        the page, tried once more at the head of the next unit, is
        dropped by name."""
        query = self._query(data)
        outcomes = []
        for context, budgets in ((_unit_at_a_time(), 2), (_page_at_a_time(), 1)):
            table = load_table(data, Layout.ROW)
            table.file.retry_policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
            plan = FaultPlan(seed=1).schedule_transient_reads(10_000, page=FLAKY)
            plan.wrap_table(table)
            result = run_scan(table, query, context, salvage=True)
            assert [f.page for f in result.corruption.faults] == [FLAKY]
            assert plan.transient_raised == 3 * budgets
            outcomes.append(_outcome(result, context))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("limit", [1, 10, 400])
    def test_a_limit_stops_where_the_page_at_a_time_scan_stops(self, data, limit):
        """The consumer stops pulling mid-unit: the unreleased pages are
        not charged, ticked or reported, faulty or not (the small limits
        run strict: the flipped page is read but never reached)."""
        query = self._query(data)
        outcomes = []
        for context in (_unit_at_a_time(), _page_at_a_time()):
            table, _plan = _faulty_row_table(data)
            context.strict_integrity = limit < 400
            blocks = Limit(context, scan_plan(context, table, query), limit).drain()
            outcomes.append(
                {
                    "events": context.events.as_dict(),
                    "positions": concat_blocks(blocks).positions.tolist(),
                    "faults": [f.page for f in context.corruption.faults],
                    "pages_scanned": context.corruption.pages_scanned,
                    "ticks": context.governance.ticks,
                }
            )
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]["positions"]) == limit
        if limit < 400:  # satisfied inside the first unit
            capacity = table.page_codec.tuples_per_page
            assert outcomes[0]["events"]["pages_touched"] <= -(-limit // capacity) + 2
            assert outcomes[0]["faults"] == []


# --- governance inside and between units ----------------------------------------

GOLDEN_CASE = "clean/row/plain/one-10pct/all"


class TestGovernance:
    @pytest.fixture(scope="class")
    def table(self):
        return load_table(generate_lineitem(ROWS, seed=77), Layout.ROW)

    QUERY = ScanQuery("LINEITEM", select=("L_ORDERKEY", "L_QUANTITY"))

    def _plan(self, table, hook):
        context = ExecutionContext(governance=QueryContext(on_tick=hook))
        return context, scan_plan(context, table, self.QUERY)

    def test_no_page_is_charged_before_its_checkpoint(self, table):
        """A unit's pages pass their checkpoints first and are charged
        together: at every checkpoint the pages charged number no more
        than the checkpoints passed, and a finished scan has passed one
        per logical page and one per logical block, whatever the unit."""
        runs = []
        for calibration in (
            DEFAULT_CALIBRATION,
            DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=table.page_size),
        ):
            seen = []
            context = ExecutionContext(
                calibration=calibration,
                governance=QueryContext(
                    on_tick=lambda _governance: seen.append(context.events.pages_touched)
                ),
            )
            batches = scan_plan(context, table, self.QUERY).drain()
            assert all(pages <= tick for tick, pages in enumerate(seen))
            runs.append(
                (
                    [batch.block_sizes().tolist() for batch in batches],
                    context.events.as_dict(),
                    context.corruption.pages_scanned,
                    context.governance.ticks,
                )
            )
        (by_unit, *unit_totals), (by_page, *page_totals) = runs
        # The same logical blocks, a unit's worth to the batch or a page's.
        assert sum(by_unit, []) == sum(by_page, []) and len(by_unit) < len(by_page)
        assert unit_totals == page_totals
        events, pages_scanned, ticks = unit_totals
        pages = table.file.num_pages
        assert pages > 3 * (DEFAULT_CALIBRATION.io_unit_bytes // table.page_size)
        assert events["pages_touched"] == pages_scanned == pages
        # One per logical page, one per logical block, one for the last next().
        assert events["blocks_produced"] == len(sum(by_unit, []))
        assert ticks == pages + events["blocks_produced"] + 1

    @pytest.mark.parametrize("error", [QueryCancelled, QueryTimeout])
    def test_abort_inside_a_unit_charges_exactly_the_pages_passed(self, table, error):
        """On every exit, pages charged == page checkpoints passed."""
        unit = DEFAULT_CALIBRATION.io_unit_bytes // table.page_size
        # The first checkpoint is the call to next(), the second the
        # first page's; the k-th raises with k - 2 pages passed.
        for k in (2, 3, unit // 2, unit + 1):

            def hook(governance, k=k):
                if governance.ticks == k:
                    _abort(governance, error)

            context, plan = self._plan(table, hook)
            plan.open()
            with pytest.raises(error):
                plan.next()
            assert context.governance.ticks == k
            assert context.events.pages_touched == k - 2
            assert context.corruption.pages_scanned == k - 2
            assert context.events.blocks_produced == 0

    def test_finished_scan_passed_the_pinned_number_of_checkpoints(self):
        golden = json.loads(GOLDEN_PATH.read_text())[GOLDEN_CASE]
        got = _run_scan("plain", "row", _queries("plain")["one-10pct"], None)
        assert got["ticks"] == golden["ticks"]
        assert got["blocks"] == golden["blocks"]

    @pytest.mark.parametrize("error", [QueryCancelled, QueryTimeout])
    def test_abort_between_units_is_typed_and_leaves_no_partial_result(
        self, table, error
    ):
        unit = DEFAULT_CALIBRATION.io_unit_bytes // table.page_size

        def hook(governance):
            # Fires among the second unit's checkpoints, the first done.
            if context.events.pages_touched == unit:
                if error is QueryCancelled:
                    governance.token.cancel("between units")
                else:
                    governance.deadline = time.monotonic() - 1.0

        context, plan = self._plan(table, hook)
        plan.open()
        with pytest.raises(error):
            while plan.next() is not None:
                pass
        # The abort is the only outcome: none of the second unit's pages
        # was charged or emitted.
        assert context.events.pages_touched == unit
        full = run_scan(table, self.QUERY)
        assert full.num_tuples == ROWS


# --- column scans: the unit path against the page path -------------------------

COLUMN_SCANNERS = ("pipelined", "fused")


@pytest.mark.parametrize("dataset", ["plain", "z"])
@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
class TestColumnUnitsAgainstPages:
    def test_golden_matrix_clean_and_salvaged(self, dataset, scanner):
        """Nine query shapes x four windows: events, output bytes, block
        counts, ticks and corruption reports do not depend on the unit."""
        lost = set()
        for query in _queries(dataset).values():
            for window in WINDOWS.values():
                for faults in ({}, {"corrupt": True, "salvage": True}):
                    by_unit = _run_scan(dataset, scanner, query, window, **faults)
                    by_page = _run_scan(
                        dataset, scanner, query, window, io_unit_bytes=4096, **faults
                    )
                    assert by_unit == by_page
                    lost |= {page for _file, page, _rows in by_unit["faults"]}
        # The faults lists are the page-at-a-time ones: the flipped pages, by name.
        assert lost == set(CORRUPT_PAGES)

    def test_strict_names_the_page(self, dataset, scanner):
        # Both start on L_PARTKEY, three pages long in -Z too.
        for shape in ("all16", "one-10pct"):
            query = _queries(dataset)[shape]
            messages = []
            for unit in ({}, {"io_unit_bytes": 4096}):
                with pytest.raises(ChecksumError, match=r"page [15] checksum") as raised:
                    _run_scan(dataset, scanner, query, None, corrupt=True, **unit)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]


def _wide_query(data) -> ScanQuery:
    """A dense first node on L_PARTKEY, L_COMMENT position-driven behind it
    (``data`` is ``generate_lineitem(ROWS, seed=77)``)."""
    predicate = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 0.9)
    return ScanQuery(
        data.schema.name, select=("L_PARTKEY", "L_COMMENT"), predicates=(predicate,)
    )


@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
def test_unreadable_column_page_ends_its_unit_and_is_dropped_alone(scanner):
    """Retries exhausted on the third page of a run: the unit comes back
    two pages short of it, the next one starts at the page and loses it
    by name — the fused scan its nominal span, the pipelined scan's
    inner node the positions that came in for it."""
    data = generate_lineitem(ROWS, seed=77)
    query = _wide_query(data)
    kind = SCANNERS[scanner][1]
    clean = run_scan(load_table(data, Layout.COLUMN), query, column_scanner=kind)
    outcomes = []
    for context, budgets in ((_unit_at_a_time(), 2), (_page_at_a_time(), 1)):
        table = load_table(data, Layout.COLUMN)
        comments = table.column_file("L_COMMENT")
        comments.file.retry_policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        plan = FaultPlan(seed=1).schedule_transient_reads(10_000, file=comments.file.name, page=2)
        plan.wrap_table(table)
        result = run_scan(table, query, context, salvage=True, column_scanner=kind)
        first, stop = 2 * comments.values_per_page, 3 * comments.values_per_page
        lost = (clean.positions >= first) & (clean.positions < stop)
        rows_lost = int(lost.sum()) if scanner == "pipelined" else stop - first
        assert [(f.file, f.page, f.rows_lost) for f in result.corruption.faults] == [
            (comments.file.name, 2, rows_lost)
        ]
        np.testing.assert_array_equal(result.positions, clean.positions[~lost])
        np.testing.assert_array_equal(result.column("L_COMMENT"), clean.column("L_COMMENT")[~lost])
        assert plan.transient_raised == 3 * budgets
        outcomes.append(_outcome(result, context))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
def test_a_truncated_column_loses_only_its_missing_pages(scanner, tmp_path):
    """A salvage-opened column file can be shorter than its directory.
    A run of touched pages stops at the end of the file, so every page
    that is there is served, and each missing one is lost by name with
    the positions that came in for it — nothing more, whatever the unit."""
    data = generate_lineitem(ROWS, seed=77)
    query = _wide_query(data)
    kind = SCANNERS[scanner][1]
    clean = run_scan(load_table(data, Layout.COLUMN), query, column_scanner=kind)
    save_table(load_table(data, Layout.COLUMN), tmp_path / "lineitem")
    dropped = 3
    drop_trailing_pages(tmp_path / "lineitem" / "L_COMMENT.pages", 4096, pages=dropped)
    outcomes = []
    for context in (_unit_at_a_time(), _page_at_a_time()):
        table = open_table(tmp_path / "lineitem", salvage=CorruptionReport())
        comments = table.column_file("L_COMMENT")
        present = comments.file.num_pages
        # The last page that is there sits in the middle of a unit.
        assert present % (DEFAULT_CALIBRATION.io_unit_bytes // table.page_size) > 1
        result = run_scan(table, query, context, salvage=True, column_scanner=kind)
        page_of = clean.positions // comments.values_per_page
        np.testing.assert_array_equal(result.positions, clean.positions[page_of < present])
        np.testing.assert_array_equal(
            result.column("L_COMMENT"), clean.column("L_COMMENT")[page_of < present]
        )
        # The fused scan pads a short column (the open-time report has
        # the pages); the position-driven node asks for each page.
        assert [(f.file, f.page, f.rows_lost) for f in result.corruption.faults] == [
            (comments.file.name, page, int((page_of == page).sum()))
            for page in range(present, present + dropped)
            if scanner == "pipelined"
        ]
        outcomes.append(_outcome(result, context))
    assert outcomes[0] == outcomes[1]


RLE_ATTRS = ("L_QUANTITY", "L_LINENUMBER", "L_SUPPKEY")


def _rle_view():
    """LINEITEM sorted on an RLE-compressed L_QUANTITY, in 64-byte pages:
    ``(view table, its columns in stored order)``."""
    data = generate_lineitem(ROWS, seed=77)
    view = materialize_view(
        data, RLE_ATTRS, sort_key="L_QUANTITY", compress=True, use_rle=True, page_size=64
    )
    assert view.table.column_file("L_QUANTITY").is_variable
    order = np.argsort(data.columns["L_QUANTITY"], kind="stable")
    return view.table, {name: data.columns[name][order] for name in RLE_ATTRS}


def _rle_outcomes(table, query, kind, window=None) -> list[dict]:
    """The scan by unit and by page, with one decode timed per page touched."""
    outcomes = []
    for calibration in (
        DEFAULT_CALIBRATION,
        DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=table.page_size),
    ):
        context = ExecutionContext(calibration=calibration, governance=QueryContext())
        metrics.REGISTRY.reset_values()
        result = execute_plan(scan_plan(context, table, query, kind, row_range=window))
        assert metrics.PAGE_DECODE_SECONDS.count == result.events.pages_touched
        outcomes.append(_outcome(result, context))
    return outcomes


@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
def test_rle_column_files_scan_through_the_page_fallback(scanner, fresh_telemetry):
    """No fixed-width codes to view a unit through: every unit of an RLE
    file is served page by page from the bytes read, dense and
    position-driven, and nothing about the scan moves."""
    table, stored = _rle_view()
    assert table.column_file("L_QUANTITY").file.num_pages > 1
    for predicate_attr in ("L_QUANTITY", "L_SUPPKEY"):  # RLE dense, then RLE by position
        predicate = predicate_for_selectivity(predicate_attr, stored[predicate_attr], 0.3)
        query = ScanQuery(table.schema.name, select=RLE_ATTRS, predicates=(predicate,))
        by_unit, by_page = _rle_outcomes(table, query, SCANNERS[scanner][1])
        assert by_unit == by_page
        qualifies = predicate.evaluate(stored[predicate_attr])
        assert by_unit["positions"] == np.flatnonzero(qualifies).tolist()
        for name in RLE_ATTRS:
            assert by_unit["columns"][name] == stored[name][qualifies].tolist()


#: Row windows that end inside an RLE page (L_QUANTITY's three pages
#: start at rows 0, 1306 and 2639), with the ``(checkpoints, pages
#: touched)`` the page-at-a-time scanners of the parent commit
#: (``9bdf919``) came to: pipelined, then fused.
RLE_WINDOWS = {
    (0, 100): ((9, 6), (11, 6)),
    (37, 411): ((25, 19), (28, 19)),
    (500, 1501): ((28, 21), (76, 46)),
    (2900, 3000): ((5, 1), (135, 7)),
    (50, 50): ((4, 1), (2, 0)),
}


@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
def test_a_window_ends_on_the_rle_page_its_last_row_is_on(scanner, fresh_telemetry):
    """An RLE page holds as many rows as its runs are long, far more
    than ``values_per_page`` (its pair count): where the dense node
    stops is the directory's to say.  No page that starts at or past
    the window's end is read, decoded or charged."""
    table, stored = _rle_view()
    quantity = table.column_file("L_QUANTITY")
    assert quantity.first_rows.tolist() == [0, 1306, 2639]
    assert quantity.values_per_page < 100
    predicate = predicate_for_selectivity("L_QUANTITY", stored["L_QUANTITY"], 0.3)
    query = ScanQuery(table.schema.name, select=RLE_ATTRS, predicates=(predicate,))
    for (lo, hi), pinned in RLE_WINDOWS.items():
        by_unit, by_page = _rle_outcomes(table, query, SCANNERS[scanner][1], (lo, hi))
        assert by_unit == by_page
        events = by_unit["events"]
        assert (by_unit["ticks"], events["pages_touched"]) == pinned[scanner == "fused"]
        # Every row of the RLE pages the window falls on, and of no other.
        first, last = quantity.page_of_positions(np.array([lo, max(lo, hi - 1)])).tolist()
        spans = [quantity.row_span_of_page(page, ROWS) for page in range(first, last + 1)]
        assert events.get("decoded_rle", 0) == (sum(spans) if events["pages_touched"] else 0)
        qualifies = np.flatnonzero(predicate.evaluate(stored["L_QUANTITY"][lo:hi]))
        assert by_unit["positions"] == (lo + qualifies).tolist()
        for name in RLE_ATTRS:
            assert by_unit["columns"][name] == stored[name][lo:hi][qualifies].tolist()


# --- governance inside a column unit ---------------------------------------------


@pytest.mark.parametrize("scanner", COLUMN_SCANNERS)
class TestColumnGovernance:
    @pytest.fixture(scope="class")
    def table(self):
        return load_table(generate_lineitem(ROWS, seed=77), Layout.COLUMN)

    @pytest.fixture(scope="class")
    def query(self):
        return _wide_query(generate_lineitem(ROWS, seed=77))

    @staticmethod
    def _plan(table, query, scanner, hook):
        context = ExecutionContext(governance=QueryContext(on_tick=hook))
        return context, scan_plan(context, table, query, SCANNERS[scanner][1])

    def test_finished_scan_passed_the_pinned_number_of_checkpoints(self, scanner):
        golden = json.loads(GOLDEN_PATH.read_text())[f"clean/{scanner}/plain/one-10pct/all"]
        got = _run_scan("plain", scanner, _queries("plain")["one-10pct"], None)
        assert got["ticks"] == golden["ticks"]
        assert got["blocks"] == golden["blocks"]

    def test_no_page_is_charged_before_its_checkpoint(self, table, query, scanner):
        """At every checkpoint — inside the dense node's first unit,
        between two units, inside a position-driven node — the pages
        charged so far number no more than the checkpoints passed."""
        seen = []
        context, plan = self._plan(
            table, query, scanner, lambda governance: seen.append(context.events.pages_touched)
        )
        plan.drain()
        assert len(seen) == context.governance.ticks
        assert all(pages <= tick for tick, pages in enumerate(seen))
        assert seen[-1] > DEFAULT_CALIBRATION.io_unit_bytes // table.page_size

    @pytest.mark.parametrize("error", [QueryCancelled, QueryTimeout])
    def test_abort_at_any_checkpoint_is_typed_and_leaves_no_partial_result(
        self, table, query, scanner, error
    ):
        unit = DEFAULT_CALIBRATION.io_unit_bytes // table.page_size
        context, plan = self._plan(table, query, scanner, None)
        plan.open()
        batch = plan.next()  # the whole scan runs inside the first call
        ticks = context.governance.ticks
        partkey_pages = table.column_file("L_PARTKEY").file.num_pages
        comment_pages = table.column_file("L_COMMENT").file.num_pages
        # The call to next(), one per logical page, and one per logical
        # block of the batch past the first (the call's own).
        scan = 1 + partkey_pages + comment_pages
        assert comment_pages > unit and batch.num_blocks > 2
        assert ticks == scan + batch.num_blocks - 1
        # Inside the first node's first unit, between two units of the
        # wide column, inside its last unit, at the last page of the
        # scan, and at the batch's last logical block.
        for k in (2, partkey_pages, 1 + partkey_pages + unit, scan - 3, scan, ticks):

            def hook(governance, k=k):
                if governance.ticks == k:
                    if error is QueryCancelled:
                        governance.token.cancel("mid-scan")
                    else:
                        governance.deadline = time.monotonic() - 1.0

            context, plan = self._plan(table, query, scanner, hook)
            plan.open()
            with pytest.raises(error):
                plan.next()
            # The typed error is the only outcome — next() returned no
            # block — and it landed at that checkpoint, with no more
            # pages charged than a page-at-a-time scan could have.
            assert context.governance.ticks == k
            assert context.events.pages_touched <= k


# --- shared streams: the unit path against the page path --------------------------

SHARED_ROWS = 6_000
#: Exhausts its retries on every read: the unit that reaches it ends short.
UNREADABLE = 35


def _select(data, select, *predicates) -> ScanQuery:
    """``predicates`` are ``(attribute, selectivity)`` pairs."""
    bound = tuple(
        predicate_for_selectivity(attr, data.columns[attr], selectivity)
        for attr, selectivity in predicates
    )
    return ScanQuery(data.schema.name, select=select, predicates=bound)


@functools.lru_cache(maxsize=None)
def _shared_case(dataset: str):
    """``(data, page size, pages per unit, the two riders' queries)``.

    Every table has more driving pages than a unit, on every layout:
    LINEITEM by the default 128 KB unit of 4 KB pages (L_COMMENT drives
    the column streams), the RLE/DICT/FOR ORDERS of
    ``tests/test_scan_sharing.py`` by 256-byte pages, four to the unit.
    """
    if dataset == "orders":
        data = _coded_orders(seed=11)
        queries = (
            _select(
                data,
                ("O_ORDERKEY", "O_SHIPPRIORITY", "O_ORDERSTATUS", "O_TOTALPRICE"),
                ("O_TOTALPRICE", 0.3),
            ),
            _select(data, ("O_SHIPPRIORITY", "O_CUSTKEY"), ("O_ORDERKEY", 0.5)),
        )
        return data, 256, 4, queries
    plain = generate_lineitem(SHARED_ROWS, seed=77)
    data = apply_fig5_compression(plain) if dataset == "z" else plain
    queries = (
        _select(
            data,
            ("L_ORDERKEY", "L_SHIPMODE", "L_PARTKEY", "L_DISCOUNT"),
            ("L_PARTKEY", 0.1),
            ("L_EXTENDEDPRICE", 0.5),
        ),
        # Two predicates on one attribute; the widest column is selected.
        _select(data, ("L_ORDERKEY", "L_COMMENT"), ("L_ORDERKEY", 0.6), ("L_ORDERKEY", 0.9)),
    )
    return data, 4096, DEFAULT_CALIBRATION.io_unit_bytes // 4096, queries


@functools.lru_cache(maxsize=None)
def _shared_table(dataset: str, layout: Layout, faulty: bool = False):
    """A loaded table; ``faulty`` flips a bit on pages 1 and 5 of every
    file and makes page ``UNREADABLE`` of every file that has one
    unreadable.  The faults are the same on every read, so one wrapped
    table serves every run."""
    data, page_size, _unit, _queries = _shared_case(dataset)
    if dataset == "orders" and layout is not Layout.COLUMN:
        # RLE is a column codec: its runs do not fit a 256-byte row page.
        plain = orders_schema().attribute("O_SHIPPRIORITY").codec_spec
        data = data.with_schema(data.schema.with_codecs({"O_SHIPPRIORITY": plain}))
    table = load_table(data, layout, page_size=page_size)
    if faulty:
        plan = FaultPlan(seed=7).schedule_transient_reads(10**9, page=UNREADABLE)
        for page in CORRUPT_PAGES:
            plan.schedule_bit_flip(page, byte=11, bit=3)
        plan.wrap_table(table)
        files = (
            [table.file]
            if layout is not Layout.COLUMN
            else [column_file.file for column_file in table.column_files.values()]
        )
        for file in files:
            file.retry_policy = RetryPolicy(max_attempts=2, sleep=lambda _seconds: None)
    return table


def _shared_calibrations(dataset: str) -> tuple:
    """The stream's calibration by unit, then page at a time."""
    _data, page_size, unit, _queries = _shared_case(dataset)
    return (
        DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=unit * page_size),
        DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=page_size),
    )


def _shared_outcome(table, queries, calibration, attach_after, strict: bool) -> dict:
    """Two riders on one stream; the second attaches after
    ``attach_after`` pumps of the first (``None``: after it has finished
    and detached).  A rider's typed error is part of the outcome."""
    attrs = tuple(dict.fromkeys(queries[0].scan_attributes() + queries[1].scan_attributes()))
    stream = SharedScanStream(table, attrs, strict, calibration)
    contexts = [
        ExecutionContext(strict_integrity=strict, governance=QueryContext()) for _ in queries
    ]
    riders: list = [None, None]
    blocks: list = [[], []]
    raised: list = [None, None]

    def attempt(which: int, action) -> None:
        if raised[which] is None:
            try:
                action()
            except ReproError as exc:
                raised[which] = type(exc).__name__

    def attach(which: int) -> None:
        riders[which] = SharedScanConsumer(contexts[which], stream, queries[which])
        riders[which].open()

    def drain(which: int) -> None:
        while (block := riders[which].next()) is not None:
            blocks[which].append(block)
        riders[which].close()

    attempt(0, lambda: attach(0))
    for _pump in range(attach_after or 0):
        attempt(0, riders[0].advance)
    if attach_after is None:
        attempt(0, lambda: drain(0))
    attempt(1, lambda: attach(1))
    if attach_after is not None:
        attempt(0, lambda: drain(0))
    attempt(1, lambda: drain(1))
    outcome = {
        "segments": stream.num_segments,
        "cursor": stream.cursor,
        "failed": type(stream.failed).__name__,
        "io_events": stream.io_events.as_dict(),
    }
    for which, label in enumerate(("first", "second")):
        outcome[label] = _record(contexts[which], blocks[which])
        outcome[label]["raises"] = raised[which]
        if riders[which] is not None:
            outcome[label]["attach_cursor"] = riders[which].attach_cursor
    return outcome


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
@pytest.mark.parametrize("dataset", ["plain", "z", "orders"])
class TestSharedUnitsAgainstPages:
    """What a rider and its stream account for does not depend on the
    unit the stream reads in (DESIGN.md §7a, "Shared streams by unit")."""

    @staticmethod
    def _attach_points(dataset, table, queries) -> list:
        """0, mid-unit, a unit boundary, mid-way through the second
        unit, the last segment, and after the first rider is done."""
        unit = _shared_case(dataset)[2]
        attrs = queries[0].scan_attributes() + queries[1].scan_attributes()
        segments = SharedScanStream(table, tuple(dict.fromkeys(attrs)), True).num_segments
        assert segments > unit + 3
        return [0, unit // 2, unit, unit + 3, segments - 1, None]

    def test_clean_and_salvaged_rides(self, dataset, layout):
        queries = _shared_case(dataset)[3]
        by_unit, by_page = _shared_calibrations(dataset)
        lost = set()
        for faulty in (False, True):
            table = _shared_table(dataset, layout, faulty)
            for attach_after in self._attach_points(dataset, table, queries):
                unit = _shared_outcome(table, queries, by_unit, attach_after, strict=False)
                page = _shared_outcome(table, queries, by_page, attach_after, strict=False)
                assert unit == page, (faulty, attach_after)
                assert unit["first"]["raises"] is None and unit["second"]["raises"] is None
                if faulty:
                    assert unit["first"]["faults"]
                    lost |= {page for _file, page, _rows in unit["second"]["faults"]}
                else:
                    assert unit["second"]["rows"] == len(
                        run_scan(table, queries[1]).positions
                    )
        assert lost and lost <= {*CORRUPT_PAGES, UNREADABLE}
        if layout is not Layout.COLUMN:
            assert lost == {*CORRUPT_PAGES, UNREADABLE}

    def test_strict_fails_at_the_same_delivery(self, dataset, layout):
        """The error's type, the cursor and the stream's I/O at the
        failure, and what each rider had been charged by then."""
        queries = _shared_case(dataset)[3]
        by_unit, by_page = _shared_calibrations(dataset)
        table = _shared_table(dataset, layout, faulty=True)
        for attach_after in (0, 1, 3):
            unit = _shared_outcome(table, queries, by_unit, attach_after, strict=True)
            page = _shared_outcome(table, queries, by_page, attach_after, strict=True)
            assert unit == page, attach_after
            assert unit["failed"] == "ChecksumError"
            assert unit["first"]["raises"] == unit["second"]["raises"] == "ChecksumError"
            assert unit["io_events"]["pages_touched"] > 0


class _CountingFile(PagedFile):
    """A view of a paged file that counts the reads made through it."""

    def __init__(self, inner: PagedFile):
        super().__init__(inner.name, inner.page_size, retry_policy=inner.retry_policy)
        self._data = inner._data
        self.unit_reads: list[tuple[int, int]] = []
        self.page_reads = 0

    def read_pages(self, start: int, count: int) -> bytes:
        self.unit_reads.append((start, count))
        return super().read_pages(start, count)

    def read_page(self, index: int) -> bytes:
        self.page_reads += 1
        return super().read_page(index)


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
def test_a_solo_pass_reads_each_unit_once(layout, fresh_telemetry):
    """The mechanism, by count: a clean solo pass over a P-page driving
    file issues ceil(P / unit) unit reads, no page read, and decodes
    each page it read once."""
    data, page_size, unit, queries = _shared_case("plain")
    table = load_table(data, layout, page_size=page_size)
    query = queries[1]
    if layout is Layout.COLUMN:
        files = {}
        for name in query.scan_attributes():
            column_file = table.column_file(name)
            files[name] = column_file.file = _CountingFile(column_file.file)
        driving = files["L_COMMENT"]
    else:
        driving = table.file = _CountingFile(table.file)
        files = {"row": driving}
    stream = SharedScanStream(table, query.scan_attributes(), True)
    rider = SharedScanConsumer(ExecutionContext(), stream, query)
    (batch,) = rider.drain()
    assert batch.num_blocks > 1
    pages = driving.num_pages
    assert pages > unit and stream.num_segments == pages
    assert driving.unit_reads == [
        (start, min(unit, pages - start)) for start in range(0, pages, unit)
    ]
    assert all(file.page_reads == 0 for file in files.values())
    read = sum(count for file in files.values() for _start, count in file.unit_reads)
    assert metrics.PAGE_DECODE_SECONDS.count == read
    # The modeled I/O is per logical page, each charged once.
    assert stream.io_events.pages_touched == sum(file.num_pages for file in files.values())
    if layout is not Layout.COLUMN:
        assert read == pages


# --- governance and isolation inside a shared window ------------------------------


def _abort(governance, error) -> None:
    if error is QueryCancelled:
        governance.token.cancel("mid-window")
    elif error is MemoryBudgetExceeded:
        governance.budget_abort("mid-window spike", 64)
    else:
        governance.deadline = time.monotonic() - 1.0


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.COLUMN], ids=lambda l: l.name)
class TestSharedGovernance:
    """:class:`TestGovernance` for riders: an abort at any checkpoint is
    the rider's only outcome, and its peer and the stream do not notice."""

    #: The peer is attached first and pumps this many segments alone, so
    #: the governed rider joins inside the second window and wraps.
    ATTACH_AFTER = 35

    @staticmethod
    def _ride(table, calibration, queries, k, error, attach_after):
        """The peer and a rider that aborts at its ``k``-th checkpoint,
        pumping turn by turn as the scheduler would."""
        manager = ScanShareManager()
        peer_context = ExecutionContext(calibration=calibration, governance=QueryContext())
        peer = manager.acquire(table, queries[0], peer_context)
        peer.open()
        for _pump in range(attach_after):
            peer.advance()

        def hook(governance):
            if governance.ticks == k:
                _abort(governance, error)

        context = ExecutionContext(
            calibration=calibration, governance=QueryContext(on_tick=hook)
        )
        rider = manager.acquire(table, queries[1], context)
        assert rider.share is peer.share
        rider.open()
        stream = rider.share
        riding = True
        with pytest.raises(error):
            while True:
                # The peer's pass ends where the rider's wraps: from
                # there on the rider pumps alone.
                riding = riding and peer.advance()
                rider.advance()
        # Mid-window: the window is live, and the rider is let go of
        # while the test still holds it.
        window_column = weakref.ref(next(iter(stream._window.columns.values())))
        manager.discard(rider)
        blocks = []
        while (block := peer.next()) is not None:
            blocks.append(block)
        peer.close()
        assert window_column() is None, "a discarded rider kept the window alive"
        assert manager.live_streams() == []
        return {
            "rider_ticks": context.governance.ticks,
            "rider_events": context.events.as_dict(),
            "rider_pages_scanned": context.corruption.pages_scanned,
            "rider_held": rider._held,
            "peer": _record(peer_context, blocks),
            "io_events": stream.io_events.as_dict(),
            "cursor": stream.cursor,
        }

    @pytest.mark.parametrize("error", [QueryCancelled, QueryTimeout])
    def test_an_abort_is_the_riders_only_outcome(self, layout, error):
        data, page_size, unit, _queries = _shared_case("plain")
        table = _shared_table("plain", layout)
        # One share key: the same attributes, different predicates and order.
        queries = (
            _select(data, ("L_COMMENT", "L_ORDERKEY"), ("L_ORDERKEY", 0.4)),
            _select(data, ("L_ORDERKEY", "L_COMMENT")),
        )
        by_unit, by_page = _shared_calibrations("plain")
        segments = SharedScanStream(table, queries[0].scan_attributes(), True).num_segments
        attach = self.ATTACH_AFTER
        assert unit < attach < 2 * unit < segments
        # Two segments go by per round (the peer pumps, then the rider):
        # the rider's k-th checkpoint comes before segment attach + 2k - 1.
        boundary = (2 * unit - attach + 1) // 2
        wrap = (segments - attach + 1) // 2
        solo_context = ExecutionContext(governance=QueryContext())
        solo = _record(
            solo_context,
            SharedScanConsumer(
                solo_context,
                SharedScanStream(table, queries[0].scan_attributes(), True),
                queries[0],
            ).drain(),
        )
        gc.disable()
        try:
            for k in (1, 5, boundary, boundary + 1, wrap - 1, wrap, wrap + 1, wrap + 7):
                got = self._ride(table, by_unit, queries, k, error, attach)
                want = self._ride(table, by_page, queries, k, error, attach)
                assert got == want, k
                # The typed error, at that checkpoint, and no block.
                assert got["rider_ticks"] == k and got["rider_held"] is None
                assert got["rider_events"]["values_examined"] <= 2 * k * data.num_rows
                # The peer: byte-identical to riding alone, same events.
                for key in ("events", "digest", "blocks", "rows", "pages_scanned", "faults"):
                    assert got["peer"][key] == solo[key], (k, key)
        finally:
            gc.enable()


# --- every exit of a run -----------------------------------------------------------

#: Segments to the window in the run tests: small, so that every
#: checkpoint of a window-long pump, and the first of the next, is tried.
RUN_WINDOW = 8


def _run_calibration():
    return DEFAULT_CALIBRATION.with_overrides(io_unit_bytes=RUN_WINDOW * 4096)


def _pump(rider, run: int) -> bool:
    """One pump of ``run`` segments; 1 is the bare ``advance()``, which
    is also what the parent commit (segment-at-a-time delivery) runs."""
    return rider.advance() if run == 1 else rider.advance(run)


def _crc(outcomes) -> str:
    return f"{zlib.crc32(json.dumps(outcomes, sort_keys=True).encode()):08x}"


#: CRC-32 of the run-of-one outcomes of the two tests below, measured at
#: the parent commit (347a23d): the reference is the old code.
RUN_EXITS_AT_PARENT = {
    ("abort", "ROW"): "022bf987",
    ("fault", "ROW"): "afe9a68e",
    ("abort", "COLUMN"): "fdd66943",
    ("fault", "COLUMN"): "474a1a54",
}


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.COLUMN], ids=lambda l: l.name)
class TestSharedRunExits:
    """A pump of a window's run leaves, on every way out of it, what the
    same segments pumped one ``advance()`` at a time leave."""

    #: The peer pumps this many segments alone first: the rider joins
    #: mid-window, and its first pump runs to the window's end.
    ATTACH_AFTER = RUN_WINDOW + 3

    @staticmethod
    def _queries(data):
        # One share key: the same attributes, different predicates and order.
        return (
            _select(data, ("L_COMMENT", "L_ORDERKEY"), ("L_ORDERKEY", 0.4)),
            _select(data, ("L_ORDERKEY", "L_COMMENT")),
        )

    def _abort_ride(self, table, queries, k, error, beside: bool, run: int) -> dict:
        """A rider that aborts at its ``k``-th checkpoint while pumping
        runs of ``run`` segments, alone or beside an attached peer."""
        calibration = _run_calibration()
        manager = ScanShareManager()
        peer = peer_context = None
        if beside:
            peer_context = ExecutionContext(calibration=calibration, governance=QueryContext())
            peer = manager.acquire(table, queries[0], peer_context)
            peer.open()
            for _pump_ in range(self.ATTACH_AFTER):
                peer.advance()

        def hook(governance):
            if governance.ticks == k:
                _abort(governance, error)

        context = ExecutionContext(
            calibration=calibration, governance=QueryContext(memory_budget=1, on_tick=hook)
        )
        rider = manager.acquire(table, queries[1], context)
        rider.open()
        stream = rider.share
        with pytest.raises(error):
            while True:
                _pump(rider, run)
        at_abort = {"cursor": stream.cursor, "io_events": stream.io_events.as_dict()}
        # Mid-window (none is open before the first checkpoint is passed):
        # the rider is let go of while the test still holds it.
        window = stream._window
        window_column = window and weakref.ref(next(iter(window.columns.values())))
        del window
        manager.discard(rider)
        blocks = []
        if beside:
            while (block := peer.next()) is not None:
                blocks.append(block)
            peer.close()
        assert not window_column or window_column() is None, "a discarded rider kept the window"
        assert manager.live_streams() == []
        return {
            "rider_ticks": context.governance.ticks,
            "rider_events": context.events.as_dict(),
            "rider_pages_scanned": context.corruption.pages_scanned,
            "rider_held": rider._held,
            "peer": _record(peer_context, blocks) if beside else None,
            "at_abort": at_abort,
            "io_events": stream.io_events.as_dict(),
            "cursor": stream.cursor,
        }

    def _abort_outcomes(self, layout, run: int) -> dict:
        """Every checkpoint of the rider's first pump (to the window's
        end when it joined beside the peer) and into the next window,
        for each kind of abort, alone and beside the peer."""
        data = _shared_case("plain")[0]
        table = _shared_table("plain", layout)
        queries = self._queries(data)
        outcomes = {}
        gc.disable()
        try:
            for beside in (False, True):
                for error in (QueryCancelled, QueryTimeout, MemoryBudgetExceeded):
                    for k in range(1, RUN_WINDOW + 3):
                        outcomes[f"{beside} {error.__name__} {k}"] = self._abort_ride(
                            table, queries, k, error, beside, run
                        )
        finally:
            gc.enable()
        return outcomes

    def test_an_abort_at_each_checkpoint_of_a_run(self, layout):
        reference = self._abort_outcomes(layout, 1)
        for run in (3, RUN_WINDOW, RUN_WINDOW + 5):
            for case, got in self._abort_outcomes(layout, run).items():
                assert got == reference[case], (case, run)
        for case, want in reference.items():
            beside, k = case.startswith("True"), int(case.split()[-1])
            # The typed error at that checkpoint, no block, and exactly
            # the segments before it delivered and charged.
            assert want["rider_ticks"] == k and want["rider_held"] is None
            assert want["rider_pages_scanned"] >= k - 1
            attach = self.ATTACH_AFTER if beside else 0
            assert want["at_abort"]["cursor"] == attach + k - 1
            if layout is not Layout.COLUMN:
                assert want["at_abort"]["io_events"]["pages_touched"] == attach + k - 1
        assert _crc(reference) == RUN_EXITS_AT_PARENT["abort", layout.name]

    def _fault_ride(self, data, layout, queries, victim: int, strict: bool, run: int) -> dict:
        """Two riders from segment 0, the first pumping runs of ``run``,
        over a table whose driving page ``victim`` is corrupt."""
        table = load_table(data, layout, page_size=4096)
        file = table.file if layout is not Layout.COLUMN else table.column_file("L_COMMENT").file
        file._data[victim * file.page_size + 97] ^= 0xFF
        calibration = _run_calibration()
        manager = ScanShareManager()
        contexts = [
            ExecutionContext(
                calibration=calibration, strict_integrity=strict, governance=QueryContext()
            )
            for _query in queries
        ]
        riders = [
            manager.acquire(table, query, context) for query, context in zip(queries, contexts)
        ]
        assert riders[0].share is riders[1].share
        stream = riders[0].share
        raised = [None, None]
        blocks: list = [[], []]
        for which, rider in enumerate(riders):
            rider.open()
            try:
                while _pump(rider, run):
                    pass
                while (block := rider.next()) is not None:
                    blocks[which].append(block)
                rider.close()
            except ReproError as exc:
                raised[which] = type(exc).__name__
        window = stream._window
        window_column = window and weakref.ref(next(iter(window.columns.values())))
        del window
        for rider in riders:
            manager.discard(rider)
        # (A failed stream's window lives as long as its error's traceback.)
        if stream.failed is None:
            assert window_column is None or window_column() is None
        assert manager.live_streams() == []
        outcome = {
            "failed": type(stream.failed).__name__,
            "cursor": stream.cursor,
            "io_events": stream.io_events.as_dict(),
            "shared_io_pages": manager.io_pages(),
        }
        for which, label in enumerate(("first", "second")):
            outcome[label] = {**_record(contexts[which], blocks[which]), "raises": raised[which]}
        return outcome

    def _fault_outcomes(self, layout, run: int) -> dict:
        """Strict and salvage rides over a corrupt page at the first, the
        second, a middle and the last segment of the first window, and
        at the first of the next."""
        data = _shared_case("plain")[0]
        queries = self._queries(data)
        outcomes = {}
        gc.disable()
        try:
            for strict in (True, False):
                for victim in (0, 1, RUN_WINDOW // 2, RUN_WINDOW - 1, RUN_WINDOW):
                    outcomes[f"{strict} {victim}"] = self._fault_ride(
                        data, layout, queries, victim, strict, run
                    )
        finally:
            gc.enable()
        return outcomes

    def test_a_corrupt_page_at_the_first_a_middle_and_the_last_segment(self, layout):
        reference = self._fault_outcomes(layout, 1)
        for run in (3, RUN_WINDOW, RUN_WINDOW + 5):
            for case, got in self._fault_outcomes(layout, run).items():
                assert got == reference[case], (case, run)
        for case, want in reference.items():
            strict, victim = case.startswith("True"), int(case.split()[-1])
            if not strict:
                assert want["failed"] == "NoneType"
                assert [page for _file, page, _rows in want["first"]["faults"]] == [victim]
                assert want["first"]["faults"] == want["second"]["faults"]
                continue
            # Strict: the failing page is charged, the cursor is on its
            # segment, every segment before it was delivered — to the
            # pumping rider and to its peer.
            assert want["failed"] == "ChecksumError"
            assert want["first"]["raises"] == want["second"]["raises"] == "ChecksumError"
            assert want["cursor"] == victim
            assert want["first"]["ticks"] == victim + 1
            assert want["first"]["pages_scanned"] >= victim
            assert want["second"]["events"].get("values_examined", 0) == want["first"][
                "events"
            ].get("values_examined", 0)
            if layout is not Layout.COLUMN:
                assert want["io_events"]["pages_touched"] == victim + 1
        assert _crc(reference) == RUN_EXITS_AT_PARENT["fault", layout.name]
