"""Run-length codec tests (the refrained-from extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.rle import MAX_RUN_LENGTH, RleCodec, find_runs
from repro.errors import CompressionError
from repro.types.datatypes import FixedTextType, IntType


def make_codec(values):
    return RleCodec(RleCodec.spec_for_values(values), IntType())


class TestFindRuns:
    def test_basic_runs(self):
        values = np.array([5, 5, 5, 2, 2, 9])
        run_values, run_lengths = find_runs(values)
        np.testing.assert_array_equal(run_values, [5, 2, 9])
        np.testing.assert_array_equal(run_lengths, [3, 2, 1])

    def test_all_distinct(self):
        values = np.arange(10)
        run_values, run_lengths = find_runs(values)
        assert run_values.size == 10
        assert (run_lengths == 1).all()

    def test_single_run(self):
        run_values, run_lengths = find_runs(np.full(100, 7))
        assert run_values.size == 1
        assert run_lengths[0] == 100

    def test_long_runs_split(self):
        values = np.full(MAX_RUN_LENGTH + 5, 1)
        _run_values, run_lengths = find_runs(values)
        assert run_lengths.max() <= MAX_RUN_LENGTH
        assert run_lengths.sum() == values.size

    def test_empty(self):
        run_values, run_lengths = find_runs(np.array([], dtype=np.int64))
        assert run_values.size == 0


class TestRleCodec:
    def test_roundtrip(self):
        values = np.repeat([1, -4, 1000, 0], [7, 1, 30, 3])
        codec = make_codec(values)
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, values.size, state), values
        )

    def test_markers(self):
        codec = make_codec(np.array([1, 1, 2]))
        assert codec.is_variable
        assert codec.decodes_whole_page

    def test_sorted_low_cardinality_compresses_hard(self):
        values = np.sort(np.random.default_rng(1).integers(0, 3, size=10_000))
        effective = RleCodec.effective_bits_per_value(values)
        assert effective < 0.05  # 3 runs over 10 000 values

    def test_unsorted_data_compresses_poorly(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 2**20, size=2_000)
        effective = RleCodec.effective_bits_per_value(values)
        assert effective > 20  # runs of one: pair width per value

    def test_encode_prefix_respects_budget(self):
        values = np.arange(100_000)  # worst case: all runs of 1
        codec = make_codec(values)
        payload, _state, consumed = codec.encode_prefix(values, 512)
        assert consumed < values.size
        assert len(payload) <= 512
        np.testing.assert_array_equal(
            codec.decode_page(payload, consumed, _state), values[:consumed]
        )

    def test_text_rejected(self):
        spec = CodecSpec(kind=CodecKind.RLE, bits=4, run_bits=4)
        with pytest.raises(CompressionError):
            RleCodec(spec, FixedTextType(4))

    def test_spec_validation(self):
        with pytest.raises(CompressionError):
            CodecSpec(kind=CodecKind.RLE, bits=4)  # missing run_bits
        with pytest.raises(CompressionError):
            CodecSpec(kind=CodecKind.PACK, bits=4, run_bits=2)

    def test_value_overflow_rejected(self):
        spec = CodecSpec(kind=CodecKind.RLE, bits=2, run_bits=4)
        codec = RleCodec(spec, IntType())
        with pytest.raises(CompressionError):
            codec.encode_page(np.array([100, 100]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(2**30), max_value=2**30),
            min_size=1,
            max_size=300,
        )
    )
    def test_property_roundtrip(self, raw):
        values = np.repeat(
            np.array(raw, dtype=np.int64),
            np.random.default_rng(0).integers(1, 5, size=len(raw)),
        )
        codec = make_codec(values)
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, values.size, state), values
        )


class TestRleThroughStorage:
    @pytest.fixture(scope="class")
    def rle_table(self, lineitem_data):
        from repro.storage.layout import Layout
        from repro.storage.loader import load_table

        spec = RleCodec.spec_for_values(lineitem_data.column("L_ORDERKEY"))
        packed = lineitem_data.with_schema(
            lineitem_data.schema.with_codecs({"L_ORDERKEY": spec})
        )
        return load_table(packed, Layout.COLUMN), lineitem_data

    @pytest.mark.parametrize("layout_name", ["ROW", "PAX"])
    def test_row_and_pax_loads_refuse_rle(self, lineitem_data, layout_name, monkeypatch):
        """RLE is a column codec: a row or PAX load names the attribute
        and raises its typed error before any page is written."""
        from repro.errors import StorageError
        from repro.storage.layout import Layout
        from repro.storage.loader import load_table
        from repro.storage.pagefile import PagedFile

        spec = RleCodec.spec_for_values(lineitem_data.column("L_ORDERKEY"))
        packed = lineitem_data.with_schema(
            lineitem_data.schema.with_codecs({"L_ORDERKEY": spec})
        )
        written = []
        monkeypatch.setattr(PagedFile, "append_pages", lambda _file, pages: written.append(pages))
        with pytest.raises(StorageError, match=r"LINEITEM\.L_ORDERKEY: RLE is a column codec"):
            load_table(packed, Layout[layout_name])
        assert written == []

    def test_column_roundtrip(self, rle_table):
        table, data = rle_table
        np.testing.assert_array_equal(
            table.read_column("L_ORDERKEY"), data.column("L_ORDERKEY")
        )

    def test_page_directory_built(self, rle_table):
        table, data = rle_table
        column_file = table.column_file("L_ORDERKEY")
        assert column_file.is_variable
        assert column_file.first_rows is not None
        assert column_file.first_rows[0] == 0
        assert column_file.effective_bits is not None
        # Directory maps every row to the right page.
        positions = np.arange(data.num_rows)
        pages = column_file.page_of_positions(positions)
        assert (np.diff(pages) >= 0).all()
        assert pages[0] == 0
        assert pages[-1] == column_file.file.num_pages - 1

    def test_paper_scale_size_uses_effective_bits(self, rle_table):
        table, data = rle_table
        column_file = table.column_file("L_ORDERKEY")
        size = table.file_sizes_for(["L_ORDERKEY"], cardinality=60_000_000)
        expected_bits = 60_000_000 * column_file.effective_bits
        assert size["L_ORDERKEY"] * 8 == pytest.approx(expected_bits, rel=0.02)

    def test_scan_identical_to_plain(self, rle_table, lineitem_row):
        from repro.engine.executor import run_scan
        from repro.engine.predicate import predicate_for_selectivity
        from repro.engine.query import ScanQuery

        table, data = rle_table
        predicate = predicate_for_selectivity(
            "L_SUPPKEY", data.column("L_SUPPKEY"), 0.10
        )
        select = ("L_SUPPKEY", "L_ORDERKEY")
        query = ScanQuery(
            table.schema.name, select=select, predicates=(predicate,)
        )
        reference = run_scan(
            lineitem_row,
            ScanQuery("LINEITEM", select=select, predicates=(predicate,)),
        )
        result = run_scan(table, query)
        np.testing.assert_array_equal(result.positions, reference.positions)
        np.testing.assert_array_equal(
            result.column("L_ORDERKEY"), reference.column("L_ORDERKEY")
        )
