"""FOR / FOR-delta codec tests."""

import numpy as np
import pytest

from repro.compression.base import CodecKind
from repro.compression.frame import (
    ForCodec,
    ForDeltaCodec,
    zigzag_decode,
    zigzag_encode,
)
from repro.errors import CompressionError
from repro.types.datatypes import FixedTextType, IntType
from tests.test_column_gather import column_unit, gather_values


class TestZigzag:
    def test_mapping(self):
        values = np.array([0, -1, 1, -2, 2, -64, 63])
        encoded = zigzag_encode(values)
        np.testing.assert_array_equal(encoded[:5], [0, 1, 2, 3, 4])
        assert (encoded >= 0).all()
        np.testing.assert_array_equal(zigzag_decode(encoded), values)

    def test_large_magnitudes(self):
        values = np.array([2**31 - 1, -(2**31)])
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(values)), values)


class TestForCodec:
    def test_paper_example(self):
        # "a sorted ID attribute (100, 101, 102, 103) will be stored as
        #  (0, 1, 2, 3) under plain FOR"
        values = np.array([100, 101, 102, 103])
        spec = ForCodec.spec_for_values(values, page_capacity=1024)
        assert spec.bits == 2  # max delta 3
        codec = ForCodec(spec, IntType())
        payload, state = codec.encode_page(values)
        assert state.base == 100
        np.testing.assert_array_equal(codec.decode_page(payload, 4, state), values)

    def test_selective_decode_is_per_value(self):
        values = np.arange(500, 600)
        spec = ForCodec.spec_for_values(values, page_capacity=128)
        codec = ForCodec(spec, IntType())
        assert not codec.decodes_whole_page
        selected = gather_values(codec, values, [7])
        assert selected.tolist() == [507]

    def test_non_monotonic_uses_zigzag(self):
        values = np.array([50, 10, 60, 5])
        spec = ForCodec.spec_for_values(values, page_capacity=16)
        assert spec.zigzag
        codec = ForCodec(spec, IntType())
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(codec.decode_page(payload, 4, state), values)

    def test_negative_delta_without_zigzag_rejected(self):
        spec = ForCodec.spec_for_values(np.array([1, 2, 3]), page_capacity=16)
        codec = ForCodec(spec, IntType())
        with pytest.raises(CompressionError):
            codec.encode_page(np.array([5, 1]))

    def test_text_type_rejected(self):
        spec = ForCodec.spec_for_values(np.array([1, 2]), page_capacity=16)
        with pytest.raises(CompressionError):
            ForCodec(spec, FixedTextType(4))


class TestForDeltaCodec:
    def test_paper_example(self):
        # "(100, 101, 102, 103) will be stored as (0, 1, 1, 1) under
        #  FOR-delta; the base value for that page will be 100"
        values = np.array([100, 101, 102, 103])
        spec = ForDeltaCodec.spec_for_values(values, page_capacity=1024)
        assert spec.bits == 1  # max step 1
        codec = ForDeltaCodec(spec, IntType())
        payload, state = codec.encode_page(values)
        assert state.base == 100
        np.testing.assert_array_equal(codec.decode_page(payload, 4, state), values)

    def test_delta_narrower_than_for_on_sorted_keys(self):
        keys = np.cumsum(np.ones(5000, dtype=np.int64))
        for_spec = ForCodec.spec_for_values(keys, page_capacity=4096)
        delta_spec = ForDeltaCodec.spec_for_values(keys, page_capacity=4096)
        assert delta_spec.bits < for_spec.bits

    def test_whole_page_decode_flag(self):
        values = np.arange(10)
        spec = ForDeltaCodec.spec_for_values(values, page_capacity=16)
        codec = ForDeltaCodec(spec, IntType())
        # FOR-delta pays for the full page even for one position.
        assert codec.decodes_whole_page
        selected = gather_values(codec, values, [2])
        assert selected.tolist() == [2]

    def test_roundtrip_random_walk(self):
        rng = np.random.default_rng(11)
        values = np.cumsum(rng.integers(-20, 21, size=777)) + 10_000
        spec = ForDeltaCodec.spec_for_values(values, page_capacity=777)
        codec = ForDeltaCodec(spec, IntType())
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, 777, state), values
        )

    def test_position_out_of_range_rejected(self):
        values = np.arange(10)
        spec = ForDeltaCodec.spec_for_values(values, page_capacity=16)
        codec = ForDeltaCodec(spec, IntType())
        column_file, unit = column_unit(codec, values)
        with pytest.raises(CompressionError):
            column_file.gather_unit(unit, np.array([0]), np.array([10]))

    def test_empty_page(self):
        spec = ForDeltaCodec.spec_for_values(np.array([1]), page_capacity=4)
        codec = ForDeltaCodec(spec, IntType())
        payload, state = codec.encode_page(np.array([], dtype=np.int64))
        assert codec.decode_page(payload, 0, state).size == 0

    def test_kind_markers(self):
        assert ForCodec.spec_for_values(np.array([1, 2]), 8).kind is CodecKind.FOR
        assert (
            ForDeltaCodec.spec_for_values(np.array([1, 2]), 8).kind
            is CodecKind.FOR_DELTA
        )
