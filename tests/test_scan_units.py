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
import random
import struct
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
from repro.engine import sharing
from repro.engine.operators import Limit, scan_core
from repro.engine.plan import ColumnScannerKind, scan_plan
from repro.engine.predicate import ComparisonOp, Predicate, predicate_for_selectivity
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
from tests.conftest import zero_metrics
from tests.scan_golden import (
    CORRUPT_PAGES,
    GOLDEN_PATH,
    PAGE_AT_A_TIME,
    SCANNERS,
    WINDOWS,
    _queries,
    _record,
    _run_scan,
)
from tests.test_scan_sharing import _coded_orders
from tests.test_storage_integrity import _Checks, _claiming, _misplacing

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
    """A compressed row page as it was first encoded: per-attribute
    payload bits pasted into a (tuples x stride*8) bit matrix."""
    from repro.storage.page import page_checksum
    from repro.storage.page import _BASE_SLOT

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
    page = bytearray(struct.pack("<I", count) + body + struct.pack("<IIq", page_id, 0, 0))
    struct.pack_into("<I", page, len(page) - 12, page_checksum(page))
    return bytes(page)


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


def _build_table(table_class, schema: TableSchema, columns: dict, rows: int):
    """Encode pages straight through the page codec (no loader checks)."""
    table = table_class(schema, PagedFile(schema.name, PAGE_SIZE), rows, PAGE_SIZE)
    table.file.append_pages(table.page_codec.encode_pages(0, columns))
    return table


@settings(max_examples=150, deadline=None)
@given(
    table_class=st.sampled_from((RowTable, PaxTable)),
    kind=st.sampled_from(INT_KINDS + TEXT_KINDS),
    bits=st.integers(1, 63),
    shift=st.integers(1, 9),
    rows=st.integers(0, 90),
    ordered=st.booleans(),
    subset=st.sets(st.sampled_from(("lead", "probe", "tail")), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_unit_is_the_concatenation_of_page_decodes(
    table_class, kind, bits, shift, rows, ordered, subset, seed
):
    """Every codec kind x width 1-63 x zig-zag x bit offset x partial
    last page x empty file x attribute subset, on compressed row pages
    and on PAX pages (where the offset moves the probed minipage)."""
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
    table = _build_table(table_class, schema, columns, rows)
    attrs = tuple(sorted(subset))
    pages = table.file.num_pages
    np.testing.assert_array_equal(table.read_column("probe"), probe_values)
    if not pages:
        # The empty file: nothing to read, and an empty unit is refused.
        with pytest.raises(PageFormatError):
            table.page_codec.decode_unit(b"", attrs)
        return

    unit = table.file.read_pages(range(pages))
    counts, unit_columns = table.page_codec.decode_unit(unit, attrs)
    singly = [table.decode_page(table.file.read_page(i), attrs) for i in range(pages)]
    assert counts.tolist() == [count for count, _columns in singly]
    assert set(unit_columns) == set(attrs)
    # A unit of one page, the partial last one too, decodes as its page.
    for page, (count, page_columns) in enumerate(singly):
        alone_counts, alone = table.page_codec.decode_unit(table.file.read_page(page), attrs)
        assert alone_counts.tolist() == [count]
        for name in attrs:
            np.testing.assert_array_equal(alone[name], page_columns[name])
    for name in attrs:
        joined = np.concatenate([page_columns[name] for _count, page_columns in singly])
        assert unit_columns[name].dtype == joined.dtype
        np.testing.assert_array_equal(unit_columns[name], joined)
        np.testing.assert_array_equal(unit_columns[name], columns[name])
    if table_class is not RowTable:
        return

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
    unit = table.file.read_pages(range(table.file.num_pages))
    counts, columns = table.page_codec.decode_unit(unit, attrs)
    assert int(counts.sum()) == 700 and list(columns) == list(attrs)
    for name in attrs:
        np.testing.assert_array_equal(columns[name], data.columns[name])
        np.testing.assert_array_equal(columns[name], table.read_column(name))
    # A short page in front of a full one is not a dense unit: it is
    # refused whole, and its pages decode one at a time.
    codec = table.page_codec
    short = {name: column[:10] for name, column in data.columns.items()}
    full = {name: column[10 : 10 + codec.tuples_per_page] for name, column in data.columns.items()}
    pages = codec.encode_pages(0, short) + codec.encode_pages(1, full)
    with pytest.raises(PageFormatError):
        table.page_codec.decode_unit(pages, attrs)
    size = codec.page_size
    for page, expected in ((pages[:size], short), (pages[size:], full)):
        count, columns = table.decode_page(page, attrs)
        assert count == len(expected["L_PARTKEY"])
        # ... and each alone is a one-page unit that decodes as its page.
        counts, alone = table.page_codec.decode_unit(page, attrs)
        assert counts.tolist() == [count]
        for name in attrs:
            np.testing.assert_array_equal(columns[name], expected[name])
            np.testing.assert_array_equal(alone[name], expected[name])


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX])
@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
def test_a_decoded_column_never_aliases_its_bytes(orders_data, orders_z_data, layout, compressed):
    """Text and integer attributes, by unit of one page and of several
    and by page: every decoded column owns its values, so none pins the
    file's buffer or shows a later write to it."""
    data = orders_z_data if compressed else orders_data
    table = load_table(data, layout)
    names = data.schema.attribute_names
    kinds = {data.schema.attribute(name).attr_type.is_integer for name in names}
    assert kinds == {True, False} and table.file.num_pages >= 3
    for pages in (1, 3):
        unit = table.file.read_pages(range(pages))
        _counts, columns = table.page_codec.decode_unit(unit, names)
        for name in names:
            assert not np.shares_memory(columns[name], np.frombuffer(unit, np.uint8)), name
    page = table.file.read_page(0)
    _count, columns = table.decode_page(page, names)
    for name in names:
        assert not np.shares_memory(columns[name], np.frombuffer(page, np.uint8)), name


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
    column_file.file.append_pages(column_file.page_codec.encode_pages(0, values))
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
        unit = file.read_pages(range(first, first + count))
        counts, decoded = column_file.decode_unit(unit)
        joined = np.concatenate(singly[first : first + count])
        assert counts.tolist() == [len(page) for page in singly[first : first + count]]
        assert decoded.dtype == joined.dtype
        np.testing.assert_array_equal(decoded, joined)
        # The page codec's own unit decode of its one attribute agrees.
        if count > 1:
            same, columns = column_file.page_codec.decode_unit(unit, ("probe",))
            assert same.tolist() == counts.tolist()
            np.testing.assert_array_equal(columns["probe"], joined)

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
        column_file.gather_unit(file.read_pages(range(pages)), last, np.array([len(singly[-1])]))
    with pytest.raises(CompressionError):
        column_file.gather_unit(file.read_page(pages - 1), 0 * last, np.array([len(singly[-1])]))

    if kind in ("pack", "dict", "for", "for-delta", "text-dict"):
        # The undecoded codes (compressed execution compares them).
        _counts, codes = column_file.decode_unit(file.read_pages(range(pages)), codes=True)
        by_page = [column_file.decode_unit(file.read_page(i), codes=True)[1] for i in range(pages)]
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
            file.read_pages(range(first, min(first + 32, file.num_pages)))
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
        rle.decode_unit(rle.file.read_pages(range(2)))

    dense = view.table.column_file("L_SUPPKEY")
    unit = dense.file.read_pages(range(3))
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
    """A context whose I/O unit is one page, read one unit at a time: the
    page-at-a-time scan."""
    calibration = DEFAULT_CALIBRATION.with_overrides(**PAGE_AT_A_TIME)
    return ExecutionContext(calibration=calibration, governance=QueryContext())


def _window_at_a_time() -> ExecutionContext:
    return ExecutionContext(governance=QueryContext())


def _lineitem(dataset: str):
    plain = generate_lineitem(ROWS, seed=77)
    return apply_fig5_compression(plain) if dataset == "z" else plain


def _faulty_table(data, layout: Layout = Layout.ROW):
    table = load_table(data, layout)
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
    zero_metrics()
    flight.enable()
    flight.RECORDER.clear()
    yield
    zero_metrics()
    flight.RECORDER.clear()


@pytest.mark.parametrize("dataset", ["plain", "z"])
class TestFaultsMidUnit:
    @pytest.fixture()
    def data(self, dataset):
        return _lineitem(dataset)

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
        zero_metrics()
        table, plan = _faulty_table(data)
        assert table.file.num_pages > FLAKY  # both faults sit mid-table
        context = _window_at_a_time()
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
        reference_table, _plan = _faulty_table(data)
        reference_context = _page_at_a_time()
        reference = run_scan(reference_table, query, reference_context, salvage=True)
        assert _outcome(result, context) == _outcome(reference, reference_context)

    def test_strict_raises_the_pages_checksum_error(self, data):
        query = self._query(data)
        messages = []
        for context in (_window_at_a_time(), _page_at_a_time()):
            table, _plan = _faulty_table(data)
            with pytest.raises(ChecksumError, match=f"page {FLIPPED} checksum") as raised:
                run_scan(table, query, context)
            messages.append((str(raised.value), context.governance.ticks > 0))
        assert messages[0] == messages[1]

    def test_unreadable_page_is_dropped_alone(self, data):
        """Retries exhausted: the window before ends short of the page, and
        the page, tried once more at the head of the next window, is
        dropped by name — a retry budget spent per window that reaches it."""
        query = self._query(data)
        outcomes = []
        for context in (_window_at_a_time(), _page_at_a_time()):
            calibration = context.calibration
            window = calibration.io_unit_bytes * calibration.default_prefetch_depth // 4096
            # A window that reaches the page past its head, then the one it heads.
            budgets = 1 if FLAKY % window == 0 else 2
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
        for context in (_window_at_a_time(), _page_at_a_time()):
            table, _plan = _faulty_table(data)
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

    def _plan(self, table, hook, calibration=DEFAULT_CALIBRATION):
        context = ExecutionContext(calibration=calibration, governance=QueryContext(on_tick=hook))
        return context, scan_plan(context, table, self.QUERY)

    def test_no_page_is_charged_before_its_checkpoint(self, table):
        """A unit's pages pass their checkpoints first and are charged
        together: at every checkpoint the pages charged number no more
        than the checkpoints passed, and a finished scan has passed one
        per logical page and one per logical block, whatever the unit."""
        runs = []
        for calibration in (
            DEFAULT_CALIBRATION,
            DEFAULT_CALIBRATION.with_overrides(
                io_unit_bytes=table.page_size, default_prefetch_depth=1
            ),
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
        # The same logical blocks, a window's worth to the batch or a page's.
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
        # Two-unit windows, so that the table spans several.
        window = 2 * (DEFAULT_CALIBRATION.io_unit_bytes // table.page_size)
        assert table.file.num_pages > window

        def hook(governance):
            # Fires among the second window's checkpoints, the first done.
            if context.events.pages_touched == window:
                if error is QueryCancelled:
                    governance.token.cancel("between windows")
                else:
                    governance.deadline = time.monotonic() - 1.0

        context, plan = self._plan(
            table, hook, DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=2)
        )
        plan.open()
        with pytest.raises(error):
            while plan.next() is not None:
                pass
        # The abort is the only outcome: none of the second window's pages
        # was charged or emitted.
        assert context.events.pages_touched == window
        full = run_scan(table, self.QUERY)
        assert full.num_tuples == ROWS


# --- row and PAX scans read a prefetch window -----------------------------------

WINDOW_TABLES = {
    "row": (Layout.ROW, "plain"),
    "row-z": (Layout.ROW, "z"),
    "pax": (Layout.PAX, "plain"),
}


def _depth_context(depth: int, salvage: bool = False) -> ExecutionContext:
    """Row and PAX scans reading ``depth`` I/O units at a time."""
    return ExecutionContext(
        calibration=DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=depth),
        strict_integrity=not salvage,
        governance=QueryContext(),
    )


def _column_window_query(data, dense: bool) -> ScanQuery:
    """A pipelined scan that reads ``L_COMMENT`` (51 plain pages at
    ``ROWS``) by position behind a dense ``L_PARTKEY`` — or, ``dense``,
    as its dense first node."""
    partkey = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 0.4)
    comment = Predicate("L_COMMENT", ComparisonOp.GE, b"e")
    return ScanQuery(
        data.schema.name,
        select=("L_ORDERKEY", "L_COMMENT"),
        predicates=(comment, partkey) if dense else (partkey,),
    )


#: Pipelined column scans of plain LINEITEM whose ``L_COMMENT`` file
#: carries the faults: read by position, or by the first node.
COLUMN_WINDOW_CASES = {"column": False, "column-dense": True}


def _faulty_comments(data):
    """A column table whose ``L_COMMENT`` file fails as
    :func:`_faulty_table`'s one file does: ``(table, plan, that file)``."""
    table = load_table(data, Layout.COLUMN)
    comments = table.column_file("L_COMMENT")
    comments.file.retry_policy = RetryPolicy(sleep=lambda _seconds: None)
    plan = FaultPlan(seed=9)
    plan.schedule_bit_flip(FLIPPED, file=comments.file.name, byte=11, bit=3)
    plan.schedule_transient_reads(2, file=comments.file.name, page=FLAKY)
    plan.wrap_table(table)
    return table, plan, comments.file


#: Shared streams over a file faulted as a scan's is: a row or PAX
#: table's (:func:`_faulty_table`), or a column table's ``L_COMMENT``
#: (:func:`_faulty_comments`), which drives the stream.
STREAM_WINDOW_CASES = {
    "stream-row": Layout.ROW,
    "stream-pax": Layout.PAX,
    "stream-column": Layout.COLUMN,
}


def _stream_window_outcome(layout: Layout, depth: int, salvage: bool) -> dict:
    """Two riders on a stream that reads ``depth`` units at a time, by
    attach point: each alone (``None``), and the second attaching mid-pass,
    20 segments in.  Per rider its bytes, events, ticks, faults and pages
    scanned; the stream's I/O; and the faults the plan injected."""
    data = _lineitem("plain")
    queries = (_column_window_query(data, False), _column_window_query(data, True))
    calibration = DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=depth)
    outcome = {}
    for attach_after in (None, 20):
        if layout is Layout.COLUMN:
            table, plan, _file = _faulty_comments(data)
        else:
            table, plan = _faulty_table(data, layout)
        ride = _shared_outcome(table, queries, calibration, attach_after, not salvage)
        ride["injected"] = (plan.transient_raised, plan.pages_corrupted)
        outcome[attach_after] = ride
    return outcome


@pytest.mark.parametrize("salvage", [False, True], ids=["strict", "salvage"])
@pytest.mark.parametrize("name", [*WINDOW_TABLES, *COLUMN_WINDOW_CASES, *STREAM_WINDOW_CASES])
def test_the_window_size_is_not_observable(name, salvage):
    """A bit flip and a transient fault inside the second unit of a file —
    a row or PAX table's, or a column's that a pipelined scan reads by
    position or as its first node, or that a shared stream reads for a
    solo rider or two riders, one attached mid-pass — read one, two and
    the default 48 units at a time: the same result bytes, events, ticks,
    faults, pages scanned, stream I/O and injected faults — and under
    strict integrity the same error, raised at the same checkpoint."""
    depths = (1, 2, DEFAULT_CALIBRATION.default_prefetch_depth)
    if name in STREAM_WINDOW_CASES:
        outcomes = [_stream_window_outcome(STREAM_WINDOW_CASES[name], d, salvage) for d in depths]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        for ride in outcomes[0].values():
            if salvage:
                assert ride["failed"] == "NoneType"
                assert FLIPPED in [page for _file, page, _rows in ride["second"]["faults"]]
            else:
                assert ride["failed"] == ride["first"]["raises"] == "ChecksumError"
            assert ride["injected"][0] == 2
        return
    if name in COLUMN_WINDOW_CASES:
        data = _lineitem("plain")
        query = _column_window_query(data, COLUMN_WINDOW_CASES[name])
    else:
        layout, dataset = WINDOW_TABLES[name]
        data = _lineitem(dataset)
        query = TestFaultsMidUnit._query(data)
    outcomes = []
    for depth in depths:
        if name in COLUMN_WINDOW_CASES:
            table, plan, file = _faulty_comments(data)
        else:
            table, plan = _faulty_table(data, layout)
            file = table.file
        unit = DEFAULT_CALIBRATION.io_unit_bytes // table.page_size
        assert unit <= FLIPPED < FLAKY < min(2 * unit, file.num_pages)
        context = _depth_context(depth, salvage)
        if salvage:
            outcome = _outcome(run_scan(table, query, context, salvage=True), context)
            if name in COLUMN_WINDOW_CASES:
                # The rows lost are the page's span, or the positions on it.
                [(faulted, page, lost)] = outcome["faults"]
                assert (faulted, page) == (file.name, FLIPPED) and lost > 0
            else:
                lost = table.row_span_of_page(FLIPPED)
                assert outcome["faults"] == [(table.file.name, FLIPPED, lost)]
        else:
            with pytest.raises(ChecksumError, match=f"page {FLIPPED} checksum") as raised:
                run_scan(table, query, context)
            outcome = {
                "error": str(raised.value),
                "events": context.events.as_dict(),
                "pages_scanned": context.corruption.pages_scanned,
                "ticks": context.governance.ticks,
            }
        outcome["injected"] = (plan.transient_raised, plan.pages_corrupted)
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1] == outcomes[2]


class _ReadSpy:
    """Records every ``read_pages`` call of a resident file, which stays
    an exact :class:`PagedFile` (its verification flags keep counting)."""

    def __init__(self, monkeypatch, file: PagedFile):
        self.reads: list[range] = []
        read_pages = file.read_pages

        def spy(pages):
            self.reads.append(pages)
            return read_pages(pages)

        monkeypatch.setattr(file, "read_pages", spy)

    def take(self) -> list[range]:
        reads, self.reads = self.reads, []
        return reads


@pytest.mark.parametrize("name", list(WINDOW_TABLES))
class TestWindowRules:
    @staticmethod
    def _case(name):
        layout, dataset = WINDOW_TABLES[name]
        data = _lineitem(dataset)
        return data, TestFaultsMidUnit._query(data), layout

    @staticmethod
    def _page_decodes(monkeypatch) -> list[int]:
        pages = []
        decode = scan_core.guarded_decode

        def spy(context, decode_page, file, page, row_span, data=None):
            pages.append(page)
            return decode(context, decode_page, file, page, row_span, data)

        monkeypatch.setattr(scan_core, "guarded_decode", spy)
        return pages

    def test_a_limit_reads_one_unit_and_a_full_scan_after_it_windows(self, name, monkeypatch):
        """Under a demand hint a scan reads an I/O unit, not a window.  The
        next full scan reads the file as one window — the verified unit
        and the unverified rest together, no page decoded alone — checks
        the unverified pages' CRCs alone, and sees what a scan of a fresh
        table sees."""
        data, query, layout = self._case(name)
        table = load_table(data, layout)
        pages, unit = table.file.num_pages, DEFAULT_CALIBRATION.io_unit_bytes // table.page_size
        assert unit < pages < DEFAULT_CALIBRATION.default_prefetch_depth * unit
        spy = _ReadSpy(monkeypatch, table.file)
        capacity = table.page_codec.tuples_per_page
        context = _window_at_a_time()
        Limit(context, scan_plan(context, table, query), capacity + 1).drain()
        assert spy.take() == [range(0, unit)]
        assert table.file.verified(range(pages)) == unit

        page_decodes = self._page_decodes(monkeypatch)
        checks = _Checks(monkeypatch)
        context = _window_at_a_time()
        after = run_scan(table, query, context)
        assert spy.take() == [range(0, pages)]
        assert page_decodes == []
        assert checks.take() == pages - unit
        fresh_context = _window_at_a_time()
        fresh = run_scan(load_table(data, layout), query, fresh_context)
        assert _outcome(after, context) == _outcome(fresh, fresh_context)

    def test_a_partly_verified_window_checks_only_its_unverified_pages(self, name, monkeypatch):
        """A windowed scan that started mid-unit left the first unit partly
        verified: the full scan after it reads the file as one window,
        checks the CRCs of the five pages it has not seen pass, each once,
        and decodes the window whole, no page alone."""
        data, query, layout = self._case(name)
        table = load_table(data, layout)
        pages, unit = table.file.num_pages, DEFAULT_CALIBRATION.io_unit_bytes // table.page_size
        start = 5 * table.page_codec.tuples_per_page
        scan_plan(ExecutionContext(), table, query, row_range=(start, table.num_rows)).drain()
        assert table.file.verified(range(unit)) == unit - 5

        spy = _ReadSpy(monkeypatch, table.file)
        page_decodes = self._page_decodes(monkeypatch)
        checks = _Checks(monkeypatch)
        context = _window_at_a_time()
        after = run_scan(table, query, context)
        assert spy.take() == [range(0, pages)]
        assert page_decodes == []
        assert checks.take() == 5
        assert table.file.verified(range(pages)) == pages
        fresh_context = _window_at_a_time()
        fresh = run_scan(load_table(data, layout), query, fresh_context)
        assert _outcome(after, context) == _outcome(fresh, fresh_context)


# --- a partly verified window: checked page by page, decoded whole ------------


def _window_decoder(table, layout: Layout):
    """``(file, decode(data, verify) -> (counts per page, {attribute:
    values}))`` over pages read back to back: of a row or PAX table's
    file, or of a column table's ``L_COMMENT``."""
    if layout is Layout.COLUMN:
        column_file = table.column_file("L_COMMENT")

        def decode_column(data, verify):
            counts, values = column_file.decode_unit(data, verify=verify)
            return counts.tolist(), {"L_COMMENT": values}

        return column_file.file, decode_column
    attrs = ("L_ORDERKEY", "L_PARTKEY", "L_COMMENT")

    def decode(data, verify):
        if len(data) == table.page_size:
            count, columns = table.decode_page(data, attrs, verify)
            return [count], columns
        counts, columns = table.page_codec.decode_unit(data, attrs, verify)
        return counts.tolist(), columns

    return table.file, decode


@pytest.mark.parametrize("strict", [False, True], ids=["salvage", "strict"])
@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
@pytest.mark.parametrize("seed", range(6))
def test_a_partly_verified_window_decodes_as_its_pages_do(seed, layout, strict, monkeypatch):
    """A window a random subset of whose pages are verified — with one
    unverified page flipped (odd seeds), or none — read whole equals a
    page-by-page decode of every page with its CRC: the values, the
    counts per page and the faults.  One CRC is computed per unverified
    page the read reaches, the flipped one included; a strict read names
    that page after yielding every page before it."""
    rng = random.Random(seed)
    table = load_table(_lineitem("plain"), layout)
    file, decode = _window_decoder(table, layout)
    pages = range(file.num_pages)
    assert len(pages) < scan_core.window_pages(DEFAULT_CALIBRATION, file.page_size)
    verified = sorted(rng.sample(pages, rng.randrange(1, len(pages))))
    unverified = sorted(set(pages) - set(verified))
    file.mark_verified(verified)
    flipped = rng.choice(unverified) if seed % 2 else None
    if flipped is not None:
        file.corrupt(flipped, 97)

    expected_counts, expected, expected_faults = [], [], []
    for page in pages:
        try:
            counts, columns = decode(file.read_page(page), True)
        except ChecksumError:
            expected_counts.append(0)
            expected_faults.append(page)
            continue
        expected_counts += counts
        expected.append(columns)

    checks = _Checks(monkeypatch)
    context = ExecutionContext(strict_integrity=strict)
    got_counts, got = [], []
    pieces = scan_core.guarded_units(
        context,
        len(pages),
        file,
        pages,
        lambda _at: 1,
        lambda data, _at, _run, verify: decode(data, verify),
    )
    if strict and flipped is not None:
        with pytest.raises(ChecksumError, match=f"page {flipped} checksum"):
            for _at, _run, (counts, columns) in pieces:
                got_counts += counts
                got.append(columns)
        assert got_counts == expected_counts[:flipped]
        assert checks.take() == len([page for page in unverified if page <= flipped])
        return
    for _at, run, decoded in pieces:
        if flipped is None:
            assert run == len(pages)  # one whole window
        if decoded is None:
            got_counts.append(0)
        else:
            got_counts += decoded[0]
            got.append(decoded[1])
    assert got_counts == expected_counts
    for name in expected[0]:
        np.testing.assert_array_equal(
            np.concatenate([columns[name] for columns in got]),
            np.concatenate([columns[name] for columns in expected]),
        )
    assert [fault.page for fault in context.corruption.faults] == expected_faults
    assert expected_faults == ([] if flipped is None else [flipped])
    assert checks.take() == len(unverified)
    assert file.verified(pages) == len(pages) - len(expected_faults)


# --- the reader: one read step per next() ------------------------------------


class TestReaderContract:
    """``guarded_units`` reads one step per ``next()`` — a window, or one
    page of a window that did not decode whole, decoded only when it is
    pulled — and passes no checkpoint and counts no page: an ungoverned
    serial scan or stream passes none per page."""

    @staticmethod
    def _row_file():
        """``(table, decode)``: plain ROW LINEITEM, 116 pages, and the
        serial scan's decode of two of its attributes."""
        table = load_table(_lineitem("plain"), Layout.ROW)
        attrs = ("L_ORDERKEY", "L_COMMENT")

        def decode(unit, _at, _run, verify):
            return scan_core.decode_tuple_pages(
                table.row_span_of_page,
                table.page_size,
                unit,
                verify,
                table.page_codec.decode_unit,
                attrs,
            )

        return table, decode

    def test_a_healthy_file_reads_one_window_per_pull(self, monkeypatch):
        table, decode = self._row_file()
        file = table.file
        pages = range(file.num_pages)
        span = -(-len(pages) // 3)
        reads = _ReadSpy(monkeypatch, file)
        pieces = scan_core.guarded_units(
            ExecutionContext(), span, file, pages, table.row_span_of_page, decode
        )
        assert reads.take() == []
        for window in range(3):
            at, run, decoded = next(pieces)
            assert at == window * span and decoded is not None
            assert [list(read) for read in reads.take()] == [list(pages[at : at + run])]
        assert next(pieces, None) is None
        assert reads.take() == []

    def test_a_failed_window_comes_a_page_per_pull(self, monkeypatch):
        table, decode = self._row_file()
        file = table.file
        pages = range(file.num_pages)
        flipped = 5
        file.corrupt(flipped, 97)
        decoded_alone = []
        guarded_decode = scan_core.guarded_decode

        def spy(context, decode_page, read_file, page, row_span, data):
            decoded_alone.append(page)
            return guarded_decode(context, decode_page, read_file, page, row_span, data)

        monkeypatch.setattr(scan_core, "guarded_decode", spy)
        reads = _ReadSpy(monkeypatch, file)
        context = ExecutionContext(strict_integrity=False)
        pieces = scan_core.guarded_units(
            context, len(pages), file, pages, table.row_span_of_page, decode
        )
        for page in pages:
            at, run, decoded = next(pieces)
            assert (at, run) == (page, 1)
            assert decoded_alone == list(range(page + 1))
            assert (decoded is None) == (page == flipped)
        assert next(pieces, None) is None
        assert [list(read) for read in reads.take()] == [list(pages)]
        assert [fault.page for fault in context.corruption.faults] == [flipped]
        assert context.corruption.pages_scanned == 0  # the reader counts none

    def test_an_ungoverned_read_passes_no_checkpoint_per_page(self, monkeypatch):
        calls = {"scanner": 0, "stream": 0}

        def counting(key):
            def checkpoint(*_args):
                calls[key] += 1

            return checkpoint

        monkeypatch.setattr(scan_core.Scanner, "_governance_check", counting("scanner"))
        monkeypatch.setattr(sharing, "_no_checkpoint", counting("stream"))
        data = _lineitem("plain")
        table = load_table(data, Layout.ROW)
        reads = _ReadSpy(monkeypatch, table.file)
        query = ScanQuery(data.schema.name, select=("L_ORDERKEY",))
        calibration = DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=1)

        rows = len(concat_blocks(scan_plan(ExecutionContext(calibration=calibration), table, query).drain()))
        windows = len(reads.take())
        assert rows == ROWS and windows == 4
        assert calls == {"scanner": windows, "stream": 0}  # one per read step

        calls["scanner"] = 0
        stream = SharedScanStream(table, query.scan_attributes(), True, calibration)
        rider = SharedScanConsumer(ExecutionContext(calibration=calibration), stream, query)
        assert len(concat_blocks(rider.drain())) == ROWS
        assert len(reads.take()) == windows
        # The rider's one per segment pumped; the stream's reads pass none.
        assert calls == {"scanner": stream.num_segments, "stream": 0}


# --- column scans read a prefetch window too ----------------------------------


class TestColumnWindowRules:
    """The window rule of row and PAX scans (:class:`TestWindowRules`) in a
    pipelined column scan, on ``L_COMMENT`` at ``SPAN_ROWS`` (204 pages,
    seven units)."""

    @staticmethod
    def _spies(monkeypatch, file: PagedFile):
        """``(reads, page decodes, pages whose CRC was checked)`` of ``file``."""
        reads, page_decodes, checked = [], [], []
        read, decode = scan_core.guarded_decode_unit, scan_core.guarded_decode

        def read_spy(context, decode_unit, read_file, pages, span_of, at):
            if read_file is not file:
                return read(context, decode_unit, read_file, pages, span_of, at)

            def verifying(unit, at, run, verify):
                if verify:
                    checked.extend(pages)
                return decode_unit(unit, at, run, verify)

            reads.append(pages)
            return read(context, verifying, read_file, pages, span_of, at)

        def decode_spy(context, decode_page, read_file, page, row_span, data=None):
            if read_file is file:
                page_decodes.append(page)
            return decode(context, decode_page, read_file, page, row_span, data)

        monkeypatch.setattr(scan_core, "guarded_decode_unit", read_spy)
        monkeypatch.setattr(scan_core, "guarded_decode", decode_spy)
        return reads, page_decodes, checked

    @staticmethod
    def _dense_query(data) -> ScanQuery:
        """``L_COMMENT`` as the dense first node, every row qualifying."""
        predicate = Predicate("L_COMMENT", ComparisonOp.GE, b"")
        return ScanQuery(data.schema.name, select=("L_COMMENT",), predicates=(predicate,))

    def test_a_fresh_table_decodes_each_window_whole_with_every_crc(self, monkeypatch):
        data, sparse_query, unit, touched = _sparse_case()
        for query, read in ((self._dense_query(data), range(204)), (sparse_query, touched)):
            table = load_table(data, Layout.COLUMN)
            comments = table.column_file("L_COMMENT").file
            assert comments.num_pages == 204
            reads, page_decodes, checked = self._spies(monkeypatch, comments)
            run_scan(table, query, _window_at_a_time())
            assert [list(pages) for pages in reads] == [list(read)]
            assert page_decodes == []
            assert checked == list(read)

    def test_a_partly_verified_file_decodes_each_window_whole(self, monkeypatch):
        """A position-driven node read pages 0-71 (two units and a
        quarter): the dense scan after it reads the file as one window,
        checks the CRCs of the other 132 pages alone, each once, decodes
        the window whole with no page alone, and sees what a scan of a
        fresh table sees."""
        data, _query, unit, _touched = _sparse_case()
        table = load_table(data, Layout.COLUMN)
        comments = table.column_file("L_COMMENT")
        every = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 1.0)
        attach = ScanQuery(data.schema.name, select=("L_PARTKEY", "L_COMMENT"), predicates=(every,))
        rows = (2 * unit + 8) * comments.values_per_page
        context = _window_at_a_time()
        scan_plan(context, table, attach, row_range=(0, rows)).drain()
        assert comments.file.verified(range(204)) == 2 * unit + 8

        reads, page_decodes, checked = self._spies(monkeypatch, comments.file)
        checks = _Checks(monkeypatch)
        query = self._dense_query(data)
        context = _window_at_a_time()
        after = run_scan(table, query, context)
        assert reads == [range(0, 204)]
        assert page_decodes == [] and checked == []  # decoded whole, with no check
        assert checks.take() == 204 - (2 * unit + 8)
        assert comments.file.verified(range(204)) == 204
        fresh_context = _window_at_a_time()
        fresh = run_scan(load_table(data, Layout.COLUMN), query, fresh_context)
        assert _outcome(after, context) == _outcome(fresh, fresh_context)


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
                        dataset, scanner, query, window, **PAGE_AT_A_TIME, **faults
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
            for unit in ({}, PAGE_AT_A_TIME):
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
    for context, budgets in ((_window_at_a_time(), 2), (_page_at_a_time(), 1)):
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
    for context in (_window_at_a_time(), _page_at_a_time()):
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


# --- a position-driven node reads one window's span of its pages at a time -------

SPAN_ROWS = 12_000


def _sparse_case():
    """A 1 % node over ``L_COMMENT`` (204 pages at these rows) behind a
    dense ``L_PARTKEY``: ``(data, query, unit pages, touched pages)``."""
    data = generate_lineitem(SPAN_ROWS, seed=77)
    predicate = predicate_for_selectivity("L_PARTKEY", data.columns["L_PARTKEY"], 0.01)
    query = ScanQuery(
        data.schema.name, select=("L_PARTKEY", "L_COMMENT"), predicates=(predicate,)
    )
    table = load_table(data, Layout.COLUMN)
    positions = run_scan(table, query).positions
    per_page = table.column_file("L_COMMENT").values_per_page
    touched = sorted(set((positions // per_page).tolist()))
    return data, query, DEFAULT_CALIBRATION.io_unit_bytes // table.page_size, touched


def _spans(pages: list[int], unit: int) -> list[list[int]]:
    """``pages`` cut into I/O units: each takes the pages that lie within
    ``unit`` pages of its first."""
    spans: list[list[int]] = []
    for page in pages:
        if spans and page < spans[-1][0] + unit:
            spans[-1].append(page)
        else:
            spans.append([page])
    return spans


def _sparse_scan(data, query, by_page: bool, strict: bool = True, corrupt=None) -> dict:
    """:func:`tests.scan_golden._record` of the pipelined scan of a fresh
    table, its ``L_COMMENT`` page ``corrupt`` flipped first."""
    table = load_table(data, Layout.COLUMN)
    if corrupt is not None:
        table.column_file("L_COMMENT").file.corrupt(corrupt, 97)
    context = _page_at_a_time() if by_page else _window_at_a_time()
    context = ExecutionContext(
        calibration=context.calibration, strict_integrity=strict, governance=QueryContext()
    )
    return _record(context, scan_plan(context, table, query).drain())


#: CRC-32 of what the tests below pin, measured at the parent commit
#: (cb05d54), where a unit ended at every gap between touched pages.
SPANS_AT_PARENT = {"untouched": "39f65bd2", "touched": "06ebe429"}


class TestSpanUnits:
    """A position-driven node reads, checks and decodes the pages its
    positions touch one prefetch window's span at a time, never a page
    they skip — and nothing a page-at-a-time scan could see moves."""

    def test_a_sparse_node_reads_one_window_per_span(self, monkeypatch):
        """One read per span of ``default_prefetch_depth`` units — all 204
        pages here — and, read a unit at a time, one per unit's span."""
        data, query, unit, touched = _sparse_case()
        span = touched[-1] - touched[0] + 1
        runs = 1 + sum(b - a > 1 for a, b in zip(touched, touched[1:]))
        read = scan_core.guarded_decode_unit
        for depth in (1, DEFAULT_CALIBRATION.default_prefetch_depth):
            table = load_table(data, Layout.COLUMN)
            comments = table.column_file("L_COMMENT").file
            reads = []

            def spy(context, decode_unit, file, pages, span_of, at):
                if file is comments:
                    reads.append(list(pages))
                return read(context, decode_unit, file, pages, span_of, at)

            monkeypatch.setattr(scan_core, "guarded_decode_unit", spy)
            run_scan(table, query, _depth_context(depth))
            assert len(reads) <= -(-span // (unit * depth)) < runs
            assert reads == _spans(touched, unit * depth)
            assert comments.verified(range(comments.num_pages)) == len(touched)
        assert reads == [touched]

    def test_an_untouched_corrupt_page_inside_a_span_is_never_read(self):
        data, query, unit, touched = _sparse_case()
        span = next(span for span in _spans(touched, unit) if span[-1] - span[0] >= len(span))
        victim = next(page for page in range(span[0], span[-1]) if page not in span)
        clean = _sparse_scan(data, query, by_page=False)
        got = _sparse_scan(data, query, by_page=False, corrupt=victim)
        assert got == clean == _sparse_scan(data, query, by_page=True, corrupt=victim)
        first_node = load_table(data, Layout.COLUMN).column_file("L_PARTKEY").file
        assert got["pages_scanned"] == first_node.num_pages + len(touched)
        assert _crc(got) == SPANS_AT_PARENT["untouched"]

    def test_a_touched_corrupt_page_inside_a_span_is_named(self):
        data, query, unit, touched = _sparse_case()
        span = next(span for span in _spans(touched, unit) if span[1] - span[0] > 1)
        victim = span[1]  # behind a gap, in the middle of its unit's buffer
        for by_page in (False, True):
            with pytest.raises(ChecksumError, match=rf"page {victim} checksum"):
                _sparse_scan(data, query, by_page, corrupt=victim)
        got = _sparse_scan(data, query, False, strict=False, corrupt=victim)
        assert got == _sparse_scan(data, query, True, strict=False, corrupt=victim)
        clean = run_scan(load_table(data, Layout.COLUMN), query)
        per_page = load_table(data, Layout.COLUMN).column_file("L_COMMENT").values_per_page
        on_victim = int((clean.positions // per_page == victim).sum())
        assert got["faults"] == [["LINEITEM.L_COMMENT", victim, on_victim]]
        assert got["rows"] == len(clean.positions) - on_victim
        assert _crc(got) == SPANS_AT_PARENT["touched"]


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
        zero_metrics()
        result = execute_plan(scan_plan(context, table, query, kind, row_range=window))
        # A bare plan has no query end to observe its decodes at.
        context.observe_decodes()
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

    def read_pages(self, pages) -> bytes:
        self.unit_reads.append((pages[0], len(pages)))
        return super().read_pages(pages)

    def read_page(self, index: int) -> bytes:
        self.page_reads += 1
        return super().read_page(index)


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
@pytest.mark.parametrize("depth", [2, DEFAULT_CALIBRATION.default_prefetch_depth])
def test_a_solo_pass_reads_each_window_once(layout, depth, fresh_telemetry):
    """The mechanism, by count: a clean solo pass over a P-page driving
    file issues ceil(P / window) window reads of ``depth`` units each,
    no page read, and decodes each page it read once."""
    data, page_size, unit, queries = _shared_case("plain")
    window = unit * depth
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
    calibration = DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=depth)
    stream = SharedScanStream(table, query.scan_attributes(), True, calibration)
    rider = SharedScanConsumer(ExecutionContext(), stream, query)
    (batch,) = rider.drain()
    assert batch.num_blocks > 1
    pages = driving.num_pages
    assert pages > unit and stream.num_segments == pages
    assert stream.window_segments == window
    assert driving.unit_reads == [
        (start, min(window, pages - start)) for start in range(0, pages, window)
    ]
    assert all(file.page_reads == 0 for file in files.values())
    read = sum(count for file in files.values() for _start, count in file.unit_reads)
    stream.observe_decodes()  # what the scheduler does when the rider finishes
    assert metrics.PAGE_DECODE_SECONDS.count == read
    # The modeled I/O is per logical page, each charged once.
    assert stream.io_events.pages_touched == sum(file.num_pages for file in files.values())
    if layout is not Layout.COLUMN:
        assert read == pages


# --- governance and isolation inside a shared window ------------------------------


def _window_ref(stream):
    """A weak reference to what ``stream``'s window holds, ``None`` when
    none is open: a column window's first decoded column (what a rider
    keeping a view of it would keep alive); a row or PAX window holds
    file pages, which cannot be weakly referenced, so its own validity
    array stands for it."""
    window = stream._window
    if window is None:
        return None
    if isinstance(stream.table, (RowTable, PaxTable)):
        return weakref.ref(window.valid)
    return weakref.ref(next(iter(window.columns.values())))


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
        # Mid-window: a column window is live (a row window whose next
        # delivery would start past it went with the step that ended
        # there), and the rider is let go of while the test still holds it.
        if not isinstance(table, (RowTable, PaxTable)):
            assert stream._window is not None
        window_column = _window_ref(stream)
        manager.discard(rider)
        blocks = []
        while (block := peer.next()) is not None:
            blocks.append(block)
        peer.close()
        assert window_column is None or window_column() is None, (
            "a discarded rider kept the window alive"
        )
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
        window_column = _window_ref(stream)
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
        file.corrupt(victim, 97)
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
        window_column = _window_ref(stream)
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


# --- a page corrupted after a scan verified it ------------------------------------


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX, Layout.COLUMN], ids=lambda l: l.name)
class TestCorruptedAfterVerified:
    """A file checks a page once per load; a page flipped in memory after
    a scan verified it is named on the next read all the same, by the
    serial scan and by a shared stream's rider: strict raises its
    ``ChecksumError``, salvage drops it alone, as a page-at-a-time scan
    of a table flipped before it was ever read does."""

    #: In the second unit of the driving file, on every layout.
    VICTIM = 40

    @staticmethod
    def _loaded(layout):
        data, page_size, _unit, queries = _shared_case("plain")
        table = load_table(data, layout, page_size=page_size)
        driving = table.file if layout is not Layout.COLUMN else table.column_file("L_COMMENT")
        return table, getattr(driving, "file", driving), queries[1]

    @staticmethod
    def _scan(table, query, strict: bool, by_page: bool, rider: bool) -> dict:
        calibration = _shared_calibrations("plain")[by_page]
        context = ExecutionContext(
            calibration=calibration, strict_integrity=strict, governance=QueryContext()
        )
        if rider:
            stream = SharedScanStream(table, query.scan_attributes(), strict, calibration)
            blocks = SharedScanConsumer(context, stream, query).drain()
        else:
            blocks = scan_plan(context, table, query).drain()
        return _record(context, blocks)

    @pytest.mark.parametrize("rider", [False, True], ids=["serial", "rider"])
    def test_strict_names_the_page(self, layout, rider):
        table, file, query = self._loaded(layout)
        self._scan(table, query, True, False, rider)
        assert file.verified([self.VICTIM])
        file.corrupt(self.VICTIM, 97)
        for _again in range(2):
            with pytest.raises(ChecksumError, match=f"page {self.VICTIM} checksum"):
                self._scan(table, query, True, False, rider)

    @pytest.mark.parametrize("rider", [False, True], ids=["serial", "rider"])
    def test_salvage_drops_the_page_alone(self, layout, rider):
        table, file, query = self._loaded(layout)
        self._scan(table, query, False, False, rider)
        verified = file.verified(range(file.num_pages))
        assert file.verified([self.VICTIM])
        file.corrupt(self.VICTIM, 97)
        got = [self._scan(table, query, False, False, rider) for _again in range(2)]

        reference_table, reference_file, _query = self._loaded(layout)
        reference_file.corrupt(self.VICTIM, 97)
        want = self._scan(reference_table, query, False, True, rider)
        assert got == [want, want]
        assert [page for _file, page, _rows in want["faults"]] == [self.VICTIM]
        assert want["faults"][0][0] == file.name
        # Every other page stays verified; the corrupt one is not again.
        assert file.verified(range(file.num_pages)) == verified - 1
        assert not file.verified([self.VICTIM])


# --- a page holds exactly its nominal span, at its own slot ------------------


#: Column scans of plain LINEITEM whose ``L_COMMENT`` file (the most
#: pages) holds the victim: ``(select list, scanner)`` — read by
#: position behind ``L_ORDERKEY``, as the pipelined scan's dense first
#: node, or by the fused scan.
SPAN_COLUMN_CASES = {
    "column": (("L_ORDERKEY", "L_PARTKEY", "L_COMMENT"), ColumnScannerKind.PIPELINED),
    "column-dense": (("L_COMMENT", "L_ORDERKEY", "L_PARTKEY"), ColumnScannerKind.PIPELINED),
    "fused": (("L_ORDERKEY", "L_PARTKEY", "L_COMMENT"), ColumnScannerKind.FUSED),
}


@pytest.mark.parametrize("strict", [False, True], ids=["salvage", "strict"])
@pytest.mark.parametrize("rider", [False, True], ids=["serial", "rider"])
@pytest.mark.parametrize("victim", [20, 31], ids=["mid-window", "window-end"])
@pytest.mark.parametrize("claim", [0, 10, "misplaced"])
@pytest.mark.parametrize("name", [*WINDOW_TABLES, *SPAN_COLUMN_CASES])
def test_a_page_short_of_its_span_is_refused_by_name(name, claim, victim, rider, strict):
    """A CRC-valid page that claims fewer entries than its nominal span
    — none, or 10 — or a copy of page 3 at its slot, in the middle or
    at the end of a 32-page window of a row, PAX or column file, read by
    the serial scan (pipelined or fused on a column table) and by a
    shared rider: strict raises ``PageFormatError``; salvage records one
    fault at that page and every other row comes back at its own Record
    ID."""
    select, scanner = ("L_ORDERKEY", "L_PARTKEY", "L_COMMENT"), ColumnScannerKind.PIPELINED
    if name in SPAN_COLUMN_CASES:
        select, scanner = SPAN_COLUMN_CASES[name]
        data = _lineitem("plain")
        table = load_table(data, Layout.COLUMN)
        column_file = table.column_file("L_COMMENT")
        file = column_file.file
        start = column_file.first_row_of_page(victim)
        span = column_file.row_span_of_page(victim, table.num_rows)
    else:
        layout, dataset = WINDOW_TABLES[name]
        data = _lineitem(dataset)
        table = load_table(data, layout)
        file = table.file
        start = victim * table.page_codec.tuples_per_page
        span = table.row_span_of_page(victim)
    assert victim + 1 < file.num_pages
    if claim == "misplaced":
        _misplacing(file, victim, 3)
    else:
        assert claim < span
        _claiming(file, victim, claim)
    query = ScanQuery(data.schema.name, select=select)
    calibration = DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=1)
    assert scan_core.window_pages(calibration, table.page_size) == 32
    context = ExecutionContext(
        calibration=calibration, strict_integrity=strict, governance=QueryContext()
    )
    if rider:
        stream = SharedScanStream(table, query.scan_attributes(), strict, calibration)
        plan = SharedScanConsumer(context, stream, query)
    else:
        plan = scan_plan(context, table, query, scanner)
    if strict:
        named = f"page {victim} holds page 3" if claim == "misplaced" else None
        with pytest.raises(PageFormatError, match=named):
            plan.drain()
        return
    result = concat_blocks(plan.drain())
    faults = [(fault.file, fault.page, fault.rows_lost) for fault in context.corruption.faults]
    assert faults == [(file.name, victim, span)]
    kept = np.r_[0:start, start + span : table.num_rows]
    np.testing.assert_array_equal(result.positions, kept)
    for attr in query.select:
        np.testing.assert_array_equal(result.columns[attr], data.columns[attr][kept])
