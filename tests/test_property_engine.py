"""Property-based engine tests.

Invariant under randomization: for any schema, data, compression
choice, predicate, and projection, all four scanners (row, compressed
row, pipelined column, fused column, PAX) return the same tuples in the
same order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind
from repro.compression.registry import build_codec_for_values
from repro.data.generator import GeneratedTable
from repro.engine.executor import run_scan
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import ScanQuery
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.types.datatypes import FixedTextType, IntType
from repro.types.schema import Attribute, TableSchema


@st.composite
def random_table(draw):
    """A 2-5 attribute table with 1-300 rows of mixed types."""
    num_attrs = draw(st.integers(min_value=2, max_value=5))
    num_rows = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    attributes = []
    columns = {}
    for index in range(num_attrs):
        name = f"a{index}"
        kind = draw(st.sampled_from(["int", "smallint", "text"]))
        if kind == "int":
            attributes.append(Attribute(name, IntType()))
            columns[name] = rng.integers(-(2**30), 2**30, size=num_rows)
        elif kind == "smallint":
            attributes.append(Attribute(name, IntType()))
            columns[name] = rng.integers(0, 16, size=num_rows)
        else:
            width = draw(st.integers(min_value=1, max_value=12))
            attributes.append(Attribute(name, FixedTextType(width)))
            pool = [
                ("v%d" % i)[:width].encode() for i in range(draw(st.integers(1, 6)))
            ]
            choices = rng.integers(0, len(pool), size=num_rows)
            columns[name] = np.array([pool[c] for c in choices], dtype=f"S{width}")
    schema = TableSchema(name="RAND", attributes=tuple(attributes))
    return GeneratedTable(schema=schema, columns=columns)


@st.composite
def query_for_table(draw, data):
    names = list(data.schema.attribute_names)
    select_count = draw(st.integers(min_value=1, max_value=len(names)))
    select = tuple(draw(st.permutations(names))[:select_count])
    predicates = []
    if draw(st.booleans()):
        attr = draw(st.sampled_from(names))
        column = data.columns[attr]
        pivot = column[draw(st.integers(0, len(column) - 1))]
        op = draw(
            st.sampled_from(
                [ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.EQ, ComparisonOp.NE]
            )
        )
        predicates.append(Predicate(attr, op, pivot))
    return ScanQuery("RAND", select=select, predicates=tuple(predicates))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_all_layouts_agree_on_random_data(data_strategy):
    data = data_strategy.draw(random_table())
    query = data_strategy.draw(query_for_table(data))

    results = []
    for layout in (Layout.ROW, Layout.COLUMN, Layout.PAX):
        table = load_table(data, layout)
        results.append(run_scan(table, query))
    column_table = load_table(data, Layout.COLUMN)
    results.append(
        run_scan(column_table, query, column_scanner=ColumnScannerKind.FUSED)
    )

    reference = results[0]
    for other in results[1:]:
        assert other.num_tuples == reference.num_tuples
        np.testing.assert_array_equal(other.positions, reference.positions)
        for name in query.select:
            np.testing.assert_array_equal(other.column(name), reference.column(name))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_compressed_storage_is_transparent(data_strategy):
    """Loading under advisor-chosen codecs never changes query answers."""
    from repro.compression.advisor import CompressionAdvisor

    data = data_strategy.draw(random_table())
    query = data_strategy.draw(query_for_table(data))
    reference = run_scan(load_table(data, Layout.ROW), query)

    advisor = CompressionAdvisor()
    attr_types = {a.name: a.attr_type for a in data.schema}
    specs = advisor.advise(attr_types, data.columns)
    packed = data.with_schema(data.schema.with_codecs(specs))
    for layout in (Layout.ROW, Layout.COLUMN, Layout.PAX):
        result = run_scan(load_table(packed, layout), query)
        assert result.num_tuples == reference.num_tuples
        for name in query.select:
            np.testing.assert_array_equal(
                result.column(name), reference.column(name)
            )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_event_counts_scale_linearly(data_strategy):
    """Doubling the data doubles every scan event count."""
    from repro.engine.context import ExecutionContext

    data = data_strategy.draw(random_table())
    doubled = GeneratedTable(
        schema=data.schema,
        columns={
            name: np.concatenate([col, col]) for name, col in data.columns.items()
        },
    )
    query = ScanQuery("RAND", select=(data.schema.attribute_names[0],))

    single = ExecutionContext()
    run_scan(load_table(data, Layout.COLUMN), query, single)
    double = ExecutionContext()
    run_scan(load_table(doubled, Layout.COLUMN), query, double)

    assert double.events.values_examined == 2 * single.events.values_examined
    assert double.events.values_copied == 2 * single.events.values_copied
    assert double.events.bytes_copied == 2 * single.events.bytes_copied


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        min_size=1,
        max_size=400,
    )
)
def test_page_split_invariance(raw):
    """Column reads are identical regardless of how pages split."""
    values = np.array(raw, dtype=np.int64)
    codec = build_codec_for_values(
        CodecKind.FOR, IntType(), values, page_capacity_hint=max(1, len(values) // 3)
    )
    from repro.storage.page import ColumnPageCodec
    from repro.types.schema import Attribute, TableSchema

    schema = TableSchema("C", (Attribute("v", IntType(), codec.spec),))
    for page_size in (512, 1024, 4096):
        page_codec = ColumnPageCodec(schema, page_size)
        capacity = page_codec.tuples_per_page
        decoded = []
        for start in range(0, len(values), capacity):
            chunk = values[start : start + capacity]
            page = page_codec.encode_pages(start // capacity, chunk)
            _pid, out = page_codec.decode(page)
            decoded.append(out)
        np.testing.assert_array_equal(np.concatenate(decoded), values)
