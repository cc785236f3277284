"""The one slot gather against a whole decode followed by a take.

A row or PAX scan decodes its predicate attributes over a window and
reads every other selected attribute at the survivors' slots alone
(``TuplePageCodec.take``); a position-driven column node reads its
column the same way (``ColumnFile.gather_unit``).  Every page codec
shares that kernel: one word read per slot at its bit offset
(``CodedPageCodec._codes_at``), or at its byte offset for plain rows.
For every attribute of ROW, ROW-Z, PAX and COLUMN LINEITEM and ORDERS,
plain and Fig-5, and of a synthetic schema holding every codec (text at
unaligned bit offsets, fields wider than 57 bits, frame bases on every
page), a gather must equal the whole unit decoded and taken from — dtype
included, first and last slots of a page, a short last page and no slot
at all — and share no memory with the unit.  A scan must equal the
oracle at every survivor share the choice between the two ways sees.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.compression.base import CodecSpec
from repro.compression.registry import build_codec_for_values
from repro.data.tpch import apply_fig5_compression, generate_lineitem, generate_orders
from repro.engine.executor import run_scan
from repro.engine.parallel import parallel_query
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import ScanQuery
from repro.errors import CompressionError, SchemaError
from repro.storage import page as page_module
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.page import PAGE_TRAILER_BYTES, page_checksum
from repro.storage.pax import PaxPageCodec
from repro.storage.rowz import CompressedRowPageCodec
from repro.storage.scrub import scrub_table
from repro.types.schema import Attribute, TableSchema
from tests.test_column_gather import CASES

#: Row counts whose last page is short under every layout and codec here.
DATASETS = {
    "LINEITEM": lambda: generate_lineitem(1_301, seed=44),
    "ORDERS": lambda: generate_orders(2_503, seed=44),
}


@pytest.fixture(scope="module", params=list(DATASETS))
def plain(request):
    return DATASETS[request.param]()


def _unit(file) -> bytes:
    """Every page of a file, as one unit."""
    return bytes(file.read_pages(range(file.num_pages)))


def _rows(rng, total: int, capacity: int) -> list[np.ndarray]:
    """Ascending tuple offsets into a unit of ``total`` tuples, pages of
    ``capacity``: none, each page's first and last slot (the last page's
    last slot is the unit's last tuple), and random draws."""
    edges = np.arange(0, total, capacity)
    ends = np.minimum(edges + capacity, total) - 1
    drawn = rng.choice(total, size=min(total, 97), replace=False)
    return [
        np.zeros(0, dtype=np.int64),
        np.union1d(edges, ends),
        np.union1d(drawn, [0, total - 1]),
        np.arange(total),
    ]


def _assert_taken(got: dict, decoded: dict, rows: np.ndarray, unit: bytes) -> None:
    buffer = np.frombuffer(unit, dtype=np.uint8)
    for name, values in decoded.items():
        assert got[name].dtype == values.dtype, name
        np.testing.assert_array_equal(got[name], values[rows], err_msg=name)
        assert not np.shares_memory(got[name], buffer), name


def _check_codec(codec, unit: bytes, total: int, rng) -> None:
    """``_gather_at`` both ways and ``take`` on either side of the share
    equal ``decode_unit`` and a take, for every attribute."""
    names = codec.schema.attribute_names
    counts, decoded = codec.decode_unit(unit, names)
    assert counts.sum() == total and counts[-1] < codec.tuples_per_page
    for rows in _rows(rng, total, codec.tuples_per_page):
        pages, slots = np.divmod(rows, codec.tuples_per_page)
        for unpack in (False, True) if rows.size else (False,):
            got = codec._gather_at(unit, names, pages, slots, unpack)
            _assert_taken(got, decoded, rows, unit)
        _assert_taken(codec.take(unit, total, names, rows), decoded, rows, unit)


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX], ids=lambda layout: layout.name)
def test_a_row_or_pax_gather_is_a_decode_then_a_take(plain, layout, compressed):
    data = apply_fig5_compression(plain) if compressed else plain
    table = load_table(data, layout)
    rng = np.random.default_rng([len(layout.name), compressed, table.num_rows])
    _check_codec(table.page_codec, _unit(table.file), table.num_rows, rng)


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "fig5"])
def test_a_column_gather_is_a_decode_then_a_take(plain, compressed):
    data = apply_fig5_compression(plain) if compressed else plain
    table = load_table(data, Layout.COLUMN)
    rng = np.random.default_rng([compressed, table.num_rows])
    for name in data.schema.attribute_names:
        column_file = table.column_file(name)
        unit = _unit(column_file.file)
        counts, decoded = column_file.decode_unit(unit)
        for rows in _rows(rng, table.num_rows, column_file.values_per_page):
            got_counts, got = column_file.gather_unit(unit, *column_file.locate(rows))
            np.testing.assert_array_equal(got_counts, counts)
            _assert_taken({name: got}, {name: decoded}, rows, unit)


#: One attribute per codec, widths from 1 to 63 bits, so that tuples
#: hold text and integers at every bit alignment.
SYNTHETIC = (
    "pack-1", "identity-text", "pack-7", "textpack", "pack-57", "dict-text",
    "pack-58", "identity-int", "for", "pack-63", "dict-int", "for-zigzag", "for-delta",
)


def _synthetic(rng, tuples: int) -> tuple[TableSchema, dict[str, np.ndarray]]:
    attributes, columns = [], {}
    for name in SYNTHETIC:
        spec, attr_type, draw = CASES[name]
        values = draw(rng, tuples)
        if not isinstance(spec, CodecSpec):
            if name == "for-delta":
                values = np.cumsum(values)
            spec = build_codec_for_values(spec, attr_type, values).spec
        column = name.replace("-", "_")
        attributes.append(Attribute(column, attr_type, spec))
        columns[column] = values
    return TableSchema("SYNTHETIC", tuple(attributes)), columns


@pytest.mark.parametrize("codec_class", [CompressedRowPageCodec, PaxPageCodec])
def test_every_codec_and_alignment_gathers_as_it_decodes(codec_class):
    rng = np.random.default_rng(7)
    schema, _ = _synthetic(rng, 10)
    capacity = codec_class(schema).tuples_per_page
    total = 4 * capacity + capacity // 3
    schema, columns = _synthetic(rng, total)
    codec = codec_class(schema)
    unit = codec.encode_pages(0, columns)
    # Fields off byte boundaries: at their start (ROW-Z) or slot by slot (PAX).
    assert any(start % 8 or step % 8 for start, step in codec._slot_bits)
    _check_codec(codec, unit, total, rng)


def test_an_unknown_attribute_is_a_schema_error(plain):
    for layout in (Layout.ROW, Layout.PAX):
        table = load_table(apply_fig5_compression(plain), layout)
        with pytest.raises(SchemaError, match="NOPE"):
            table.page_codec.attribute_bits("NOPE")
        with pytest.raises(SchemaError, match="NOPE"):
            table.page_codec.decode_columns(table.file.read_page(0), ("NOPE",))


# --- scans at every survivor share --------------------------------------------


@pytest.fixture(scope="module")
def lineitem():
    return generate_lineitem(2_000, seed=45)


def _survivors(share: float, total: int) -> int:
    return min(total, max(0, round(share * total)))


SHARES = {
    "none": 0.0,
    "one-row": None,
    "below-threshold": page_module.GATHER_SHARE - 0.05,
    "above-threshold": page_module.GATHER_SHARE + 0.05,
    "all": 1.0,
}


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers-2"])
@pytest.mark.parametrize("share", list(SHARES))
@pytest.mark.parametrize(
    "layout, compressed",
    [
        (Layout.ROW, False),
        (Layout.ROW, True),
        (Layout.PAX, False),
        (Layout.PAX, True),
        (Layout.COLUMN, False),
        (Layout.COLUMN, True),
    ],
    ids=["ROW", "ROW-Z", "PAX", "PAX-Z", "COLUMN", "COLUMN-Z"],
)
def test_a_scan_at_any_survivor_share_answers_as_the_oracle(
    lineitem, layout, compressed, share, workers
):
    data = apply_fig5_compression(lineitem) if compressed else lineitem
    table = load_table(data, layout)
    key = data.column("L_EXTENDEDPRICE")  # every value distinct
    ordered = np.sort(key)
    wanted = 1 if SHARES[share] is None else _survivors(SHARES[share], len(key))
    bound = int(ordered[wanted - 1]) if wanted else int(ordered[0]) - 1
    select = ("L_EXTENDEDPRICE", *(n for n in data.schema.attribute_names if n != "L_EXTENDEDPRICE"))
    query = ScanQuery(
        data.schema.name,
        select=select,
        predicates=(Predicate("L_EXTENDEDPRICE", ComparisonOp.LE, bound),),
    )
    if workers == 1:
        result = run_scan(table, query)
    else:
        result = parallel_query(table, query, workers=2)
    hits = np.flatnonzero(key <= bound)
    assert hits.size == wanted
    np.testing.assert_array_equal(result.positions, hits)
    for name in select:
        expected = data.column(name)[hits]
        assert result.columns[name].dtype == expected.dtype, name
        np.testing.assert_array_equal(result.columns[name], expected, err_msg=name)


# --- a code no survivor projects is never decoded ----------------------------


def _bad_dictionary_code(table, row: int, name: str) -> int:
    """Set every bit of ``name``'s code in tuple ``row`` of a resident
    ROW-Z table — a code past its dictionary — and recompute the page's
    CRC: the page is CRC-valid and placed.  Returns the page."""
    codec, file = table.page_codec, table.file
    index = codec._index[name]
    assert codec._codecs[index].dictionary.size < 1 << codec._bits[index]
    page, slot = divmod(row, codec.tuples_per_page)
    start, step = codec._slot_bits[index]
    first = page * file.page_size * 8 + start + slot * step
    for bit in range(first, first + codec._bits[index]):
        file._data[bit // 8] |= 1 << bit % 8
    at = page * file.page_size
    crc = page_checksum(bytes(file._data[at : at + file.page_size]))
    struct.pack_into("<I", file._data, at + file.page_size - PAGE_TRAILER_BYTES + 4, crc)
    return page


@pytest.mark.parametrize("share", ["few", "most"])
def test_a_bad_code_no_survivor_projects_is_never_decoded(lineitem, share):
    """A CRC-valid ROW-Z page holds a dictionary code past its dictionary
    in one tuple's ``L_RETURNFLAG``.  A query whose survivors skip that
    tuple answers as the oracle, whether it reads the survivors' slots
    (few) or unpacks the window (most); one whose survivor reads it fails
    typed when strict and drops the page when salvaging; the scrubber
    names the page either way."""
    data = apply_fig5_compression(lineitem)
    table = load_table(data, Layout.ROW)
    key = data.column("L_EXTENDEDPRICE")
    bad = int(np.argmax(key))  # the one tuple the skipping queries leave out
    page = _bad_dictionary_code(table, bad, "L_RETURNFLAG")
    assert [fault.page for fault in scrub_table(table).faults] == [page]

    ordered = np.sort(key)
    skip = int(ordered[-2]) if share == "most" else int(ordered[len(key) // 10])
    select = ("L_EXTENDEDPRICE", "L_RETURNFLAG", "L_SHIPMODE")

    def query(bound: int) -> ScanQuery:
        predicate = Predicate("L_EXTENDEDPRICE", ComparisonOp.LE, bound)
        return ScanQuery(data.schema.name, select=select, predicates=(predicate,))

    def expect(result, hits) -> None:
        np.testing.assert_array_equal(result.positions, hits)
        for name in select:
            np.testing.assert_array_equal(result.columns[name], data.column(name)[hits])

    expect(run_scan(table, query(skip)), np.flatnonzero(key <= skip))
    reads = query(int(key[bad]))
    with pytest.raises(CompressionError):
        run_scan(table, reads)
    salvaged = run_scan(table, reads, salvage=True)
    assert [fault.page for fault in salvaged.corruption.faults] == [page]
    capacity = table.page_codec.tuples_per_page
    kept = np.arange(len(key)) // capacity != page
    expect(salvaged, np.flatnonzero(kept))
    assert [fault.page for fault in scrub_table(table).faults] == [page]
