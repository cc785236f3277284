"""Loads encode pages a unit at a time: the bytes are the page-at-a-time encoder's.

Every page codec — plain and Fig-5 row pages, plain and Fig-5 PAX pages,
and each column codec (uncompressed integer and text, pack, integer and
text dictionaries, FOR, FOR-delta, text pack, RLE's variable pages) —
loads 0, 1, capacity - 1, capacity and capacity + 1 rows, and most also
a file longer than one I/O unit.  ``DIGESTS`` pins a CRC32 of each
loaded file (and of an RLE column's page directory), taken from the
page-at-a-time encoder this one replaced (commit 02f8e3f), so a page
that moves by one byte fails here.  A fresh load has no page marked
verified: a scan checks each one on its first read.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pytest

from repro.compression.base import CodecKind
from repro.compression.registry import build_codec_for_values
from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.generator import GeneratedTable
from repro.data.tpch import apply_fig5_compression, generate_lineitem, generate_orders
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.types.schema import Attribute, TableSchema

PAGE_SIZE = 4096
#: Pages a load encodes at once: a file longer than this spans units.
UNIT_PAGES = DEFAULT_CALIBRATION.io_unit_bytes // PAGE_SIZE
#: A multi-unit case is skipped past this many rows (narrow codecs pack
#: hundreds of thousands of values into one unit).
MULTI_UNIT_ROWS = 80_000


@functools.cache
def _pool(table: str):
    if table == "orders":
        return generate_orders(MULTI_UNIT_ROWS, seed=29)
    if table == "orders-z":
        return apply_fig5_compression(_pool("orders"))
    return generate_lineitem(12_000, seed=29)


def _column(table: str, name: str, kind: str, ordered: bool = False) -> GeneratedTable:
    """One attribute of a pool, coded ``kind`` (fitted to the whole pool)."""
    source = _pool(table)
    values = source.column(name)
    if ordered:
        values = np.sort(values)
    attr_type = source.schema.attribute(name).attr_type
    spec = None
    if kind != "none":
        spec = build_codec_for_values(CodecKind(kind), attr_type, values).spec
    schema = TableSchema("C", (Attribute(name, attr_type, spec),))
    return GeneratedTable(schema=schema, columns={name: values})


#: case -> (data, layout)
CASES = {
    "row-plain": (lambda: _pool("orders"), Layout.ROW),
    "row-fig5": (lambda: _pool("orders-z"), Layout.ROW),
    "pax-plain": (lambda: _pool("orders"), Layout.PAX),
    "pax-fig5": (lambda: _pool("orders-z"), Layout.PAX),
    "column-int": (lambda: _column("orders", "O_CUSTKEY", "none"), Layout.COLUMN),
    "column-text": (lambda: _column("orders", "O_ORDERPRIORITY", "none"), Layout.COLUMN),
    "column-pack": (lambda: _column("orders", "O_ORDERDATE", "pack"), Layout.COLUMN),
    "column-dict": (lambda: _column("lineitem", "L_QUANTITY", "dict"), Layout.COLUMN),
    "column-text-dict": (
        lambda: _column("orders", "O_ORDERPRIORITY", "dict"), Layout.COLUMN
    ),
    "column-for": (lambda: _column("orders", "O_TOTALPRICE", "for"), Layout.COLUMN),
    "column-for-delta": (
        lambda: _column("orders", "O_ORDERKEY", "for-delta", ordered=True), Layout.COLUMN
    ),
    "column-text-pack": (lambda: _column("lineitem", "L_COMMENT", "pack"), Layout.COLUMN),
    "column-rle": (lambda: _column("lineitem", "L_ORDERKEY", "rle"), Layout.COLUMN),
}


def _files(table):
    if table.layout is Layout.COLUMN:
        return [table.column_file(name) for name in table.schema.attribute_names]
    return [table]


def _capacity(table) -> int:
    """Rows a full page holds (an RLE page: at most, runs of one)."""
    if table.layout is Layout.COLUMN:
        return min(column_file.values_per_page for column_file in _files(table))
    return table.page_codec.tuples_per_page


def _row_counts(case: str) -> tuple[list[int], bool]:
    """0, 1, capacity - 1, capacity, capacity + 1, then a file one row
    past ``UNIT_PAGES + 1`` full pages where the pool is that long (and
    whether it is), else the whole pool."""
    data, layout = CASES[case]
    data = data()
    capacity = _capacity(load_table(_prefix(data, 0), layout, PAGE_SIZE))
    counts = [0, 1, capacity - 1, capacity, capacity + 1]
    assert counts[-1] < data.num_rows
    multi_unit = capacity * (UNIT_PAGES + 1) + 1
    if multi_unit <= data.num_rows:
        return counts + [multi_unit], True
    return counts + [data.num_rows], False


def _prefix(data: GeneratedTable, rows: int) -> GeneratedTable:
    return GeneratedTable(
        schema=data.schema, columns={name: col[:rows] for name, col in data.columns.items()}
    )


def load_and_digest(case: str, rows: int):
    """``(table, CRC32 of every file's bytes)`` of ``rows`` rows of a case."""
    data, layout = CASES[case]
    table = load_table(_prefix(data(), rows), layout, PAGE_SIZE)
    crc = 0
    for holder in _files(table):
        file = holder.file
        if file.num_pages:
            crc = zlib.crc32(file.read_pages(range(file.num_pages)), crc)
        if getattr(holder, "first_rows", None) is not None:
            crc = zlib.crc32(np.asarray(holder.first_rows, dtype=np.int64).tobytes(), crc)
    return table, crc


#: ``load_and_digest`` at 02f8e3f: rows -> CRC, per entry of ``_row_counts``.
DIGESTS = {
    "column-dict": {
        0: 0, 1: 3958913237, 5433: 1420042270, 5434: 3490006583, 5435: 1891480603,
        12000: 1842959324,
    },
    "column-for": {
        0: 0, 1: 740892147, 1206: 4050812286, 1207: 1711424686, 1208: 439151914,
        39832: 3402326715,
    },
    "column-for-delta": {
        0: 0, 1: 645937802, 10868: 2049636747, 10869: 18692638, 10870: 1855303935,
        80000: 2523723749,
    },
    "column-int": {
        0: 0, 1: 3849129485, 1018: 499094381, 1019: 3741827123, 1020: 691165601,
        33628: 1707842110,
    },
    "column-pack": {
        0: 0, 1: 43089683, 2328: 4000888595, 2329: 2820704286, 2330: 1487836867,
        76858: 2998730824,
    },
    "column-rle": {
        0: 0, 1: 769479134, 1915: 647867281, 1916: 3617632491, 1917: 3588752015,
        12000: 465665464,
    },
    "column-text": {
        0: 0, 1: 56606667, 369: 3929532837, 370: 1787554092, 371: 3339231450,
        12211: 2157118367,
    },
    "column-text-dict": {
        0: 0, 1: 23372022, 10868: 1024965728, 10869: 1904231373, 10870: 1234129115,
        80000: 1878691724,
    },
    "column-text-pack": {
        0: 0, 1: 373540938, 144: 578389862, 145: 447865781, 146: 1037625359,
        4786: 365198361,
    },
    "pax-fig5": {
        0: 0, 1: 4218725548, 352: 3310380113, 353: 3452444283, 354: 544072358,
        11650: 4260289366,
    },
    "pax-plain": {
        0: 0, 1: 2055379635, 126: 4060643937, 127: 480823309, 128: 832679144,
        4192: 42047339,
    },
    "row-fig5": {
        0: 0, 1: 4019236631, 338: 2950788653, 339: 2258196407, 340: 2605837975,
        11188: 2645519845,
    },
    "row-plain": {
        0: 0, 1: 2838914347, 126: 3923309901, 127: 3793278836, 128: 1626545912,
        4192: 2571995867,
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_loads_are_the_page_at_a_time_bytes(case):
    counts, multi_unit = _row_counts(case)
    digests = []
    for rows in counts:
        table, crc = load_and_digest(case, rows)
        digests.append(crc)
        assert table.num_rows == rows
        for holder in _files(table):
            assert holder.file.verified(range(holder.file.num_pages)) == 0
    pages = max(holder.file.num_pages for holder in _files(table))
    assert pages > (UNIT_PAGES if multi_unit else 1)
    assert dict(zip(counts, digests)) == DIGESTS[case]


def test_multi_unit_files_cover_every_layout():
    spanning = {CASES[case][1] for case in CASES if _row_counts(case)[1]}
    assert spanning == set(Layout)
