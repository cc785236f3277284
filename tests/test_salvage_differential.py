"""Salvage-mode differential tests.

With seeded fault injection (:mod:`repro.storage.faults`) corrupting
specific pages, a salvage scan must return *exactly* the oracle's answer
minus the rows covered by the corrupt pages — no extra loss, no silent
survivors — and ``QueryResult.corruption`` must account for precisely
the injected pages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generator import GeneratedTable
from repro.engine.executor import run_scan
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import ScanQuery
from repro.errors import ChecksumError
from repro.storage.faults import FaultPlan
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.testing.oracle import oracle_scan
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema

ROWS = 400
PAGE_SIZE = 512


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(20060615)
    return GeneratedTable(
        schema=TableSchema(
            "S",
            attributes=(
                Attribute("a", IntType()),
                Attribute("b", IntType()),
                Attribute("c", IntType()),
            ),
        ),
        columns={
            "a": rng.integers(0, 1000, size=ROWS),
            "b": rng.integers(0, 50, size=ROWS),
            "c": np.arange(ROWS),
        },
    )


QUERY = ScanQuery("S", select=("a", "c"), predicates=(Predicate("b", ComparisonOp.LT, 40),))


def _dropped_span(table, layout, attr: str, page_id: int) -> range:
    """The global row range one corrupt page takes down."""
    if layout is Layout.COLUMN:
        column_file = table.column_files[attr]
        start = column_file.first_row_of_page(page_id)
        return range(start, start + column_file.row_span_of_page(page_id, table.num_rows))
    capacity = table.page_codec.tuples_per_page
    return range(
        page_id * capacity, page_id * capacity + table.row_span_of_page(page_id)
    )


def _expected_lost(data, table, layout, faults, column_scanner) -> int:
    """Replicate each scanner's ``rows_lost`` accounting.

    Row, PAX, and fused scans charge a corrupt page its full nominal
    row span.  The pipelined column scan charges the full span only at
    the first (dense) node; inner nodes are position-driven and charge
    exactly the pipeline positions they dropped.
    """
    if layout is not Layout.COLUMN or column_scanner is ColumnScannerKind.FUSED:
        return sum(
            len(_dropped_span(table, layout, attr, page)) for attr, page in faults
        )
    surviving = set(oracle_scan(data, QUERY).positions)
    lost = 0
    for attr in QUERY.scan_attributes():
        node_faults = [(a, p) for a, p in faults if a == attr]
        first_node = attr == QUERY.scan_attributes()[0]
        for _attr, page in node_faults:
            span = set(_dropped_span(table, layout, attr, page))
            lost += len(span) if first_node else len(surviving & span)
            surviving -= span
    return lost


def _check_salvage(data, table, layout, faults, column_scanner=ColumnScannerKind.PIPELINED):
    """Inject ``faults`` as ``(attr, page_id)`` pairs and diff vs oracle."""
    plan = FaultPlan(seed=7)
    dropped: set[int] = set()
    expected_lost = _expected_lost(data, table, layout, faults, column_scanner)
    for attr, page_id in faults:
        if layout is Layout.COLUMN:
            file_name = table.column_files[attr].file.name
        else:
            file_name = table.file.name
        plan.schedule_bit_flip(page_id, file=file_name, byte=11, bit=3)
        dropped.update(_dropped_span(table, layout, attr, page_id))
    plan.wrap_table(table)

    # Strict mode: the first corrupt page aborts the query.
    with pytest.raises(ChecksumError):
        run_scan(table, QUERY, column_scanner=column_scanner)

    result = run_scan(table, QUERY, column_scanner=column_scanner, salvage=True)

    oracle = oracle_scan(data, QUERY)
    survivors = [
        (pos, row)
        for pos, row in zip(oracle.positions, oracle.rows)
        if pos not in dropped
    ]
    assert result.positions.tolist() == [pos for pos, _row in survivors]
    got_rows = list(
        zip(result.column("a").tolist(), result.column("c").tolist())
    )
    assert got_rows == [row for _pos, row in survivors]

    # Accounting matches the injected plan exactly.
    assert not result.is_complete
    assert len(result.corruption.faults) == len(faults)
    assert result.corruption.estimated_rows_lost == expected_lost
    injected = set()
    for attr, page_id in faults:
        if layout is Layout.COLUMN:
            injected.add((table.column_files[attr].file.name, page_id))
        else:
            injected.add((table.file.name, page_id))
    assert {(f.file, f.page) for f in result.corruption.faults} == injected


@pytest.mark.parametrize("layout", [Layout.ROW, Layout.PAX])
def test_salvage_exactness_row_and_pax(data, layout):
    table = load_table(data, layout, page_size=PAGE_SIZE)
    # Two interior pages plus the (possibly short) final page.
    last = table.file.num_pages - 1
    _check_salvage(data, table, layout, [("", 1), ("", 3), ("", last)])


@pytest.mark.parametrize(
    "scanner", [ColumnScannerKind.PIPELINED, ColumnScannerKind.FUSED]
)
def test_salvage_exactness_column_predicate_file(data, scanner):
    # Corrupt pages of the predicate column: the first scan node drops
    # those spans before any position list exists.
    table = load_table(data, Layout.COLUMN, page_size=PAGE_SIZE)
    _check_salvage(data, table, Layout.COLUMN, [("b", 0), ("b", 2)], scanner)


@pytest.mark.parametrize(
    "scanner", [ColumnScannerKind.PIPELINED, ColumnScannerKind.FUSED]
)
def test_salvage_exactness_column_value_file(data, scanner):
    # Corrupt a page of a projected (non-predicate) column: positions
    # arriving from upstream must be dropped consistently so the output
    # columns stay aligned.
    table = load_table(data, Layout.COLUMN, page_size=PAGE_SIZE)
    _check_salvage(data, table, Layout.COLUMN, [("a", 1)], scanner)


@pytest.mark.parametrize(
    "scanner", [ColumnScannerKind.PIPELINED, ColumnScannerKind.FUSED]
)
def test_salvage_faults_across_files_compose(data, scanner):
    # One corrupt page in each of three different column files: the
    # dropped row set is the union of their spans.
    table = load_table(data, Layout.COLUMN, page_size=PAGE_SIZE)
    _check_salvage(
        data, table, Layout.COLUMN, [("b", 1), ("a", 2), ("c", 0)], scanner
    )


def test_salvage_with_compressed_columns(data):
    # Codecs change page capacities (more values per page); spans and
    # accounting must follow the compressed geometry.
    from repro.compression.base import CodecKind
    from repro.compression.registry import build_codec_for_values

    specs = {
        "b": build_codec_for_values(
            CodecKind.PACK, IntType(), data.column("b")
        ).spec,
        "c": build_codec_for_values(CodecKind.DICT, IntType(), data.column("c")).spec,
    }
    bound = data.with_schema(data.schema.with_codecs(specs))
    # A small page keeps even the packed columns multi-page, so spans
    # follow the compressed geometry rather than one page per column.
    table = load_table(bound, Layout.COLUMN, page_size=128)
    assert table.column_files["b"].file.num_pages > 2
    assert table.column_files["c"].file.num_pages > 3
    # b page 1 drops rows 144..287; c page 3 (rows 288..383) lies outside
    # that span, so the scan still reaches it and must report it too.
    _check_salvage(data, table, Layout.COLUMN, [("b", 1), ("c", 3)])
