"""Bit-packing tests."""

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.bitpack import (
    BitPackCodec,
    bits_needed,
    pack_bits,
    unpack_bits,
)
from repro.errors import CompressionError
from repro.types.datatypes import FixedTextType, IntType
from tests.test_column_gather import gather_values


class TestBitsNeeded:
    def test_small_domains(self):
        assert bits_needed(0) == 1
        assert bits_needed(1) == 1
        assert bits_needed(2) == 2
        assert bits_needed(7) == 3
        assert bits_needed(8) == 4

    def test_paper_examples(self):
        # "if an integer attribute has a maximum value of 1000, then we
        #  need at most 10 bits"
        assert bits_needed(1000) == 10
        assert bits_needed(50) == 6  # L_QUANTITY
        assert bits_needed(7) == 3  # L_LINENUMBER

    def test_negative_rejected(self):
        with pytest.raises(CompressionError):
            bits_needed(-1)


class TestPackUnpack:
    def test_roundtrip_various_widths(self):
        rng = np.random.default_rng(3)
        for bits in (1, 3, 7, 8, 13, 16, 31, 32, 40, 63):
            values = rng.integers(0, 2**min(bits, 62), size=257)
            packed = pack_bits(values, bits)
            assert len(packed) == (257 * bits + 7) // 8
            np.testing.assert_array_equal(unpack_bits(packed, bits, 257), values)

    def test_empty(self):
        assert pack_bits(np.array([], dtype=np.int64), 5) == b""
        assert unpack_bits(b"", 5, 0).size == 0

    def test_value_too_large(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([8]), 3)

    def test_negative_value_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([-1]), 8)

    def test_bad_width_rejected(self):
        with pytest.raises(CompressionError):
            pack_bits(np.array([1]), 0)
        with pytest.raises(CompressionError):
            unpack_bits(b"\x00", 64, 1)

    def test_short_stream_rejected(self):
        with pytest.raises(CompressionError):
            unpack_bits(b"\x01", 8, 5)

    def test_bit_density(self):
        # 1000 3-bit values occupy exactly 375 bytes.
        packed = pack_bits(np.arange(1000) % 8, 3)
        assert len(packed) == 375


class TestBitPackCodec:
    def test_spec_from_values(self):
        spec = BitPackCodec.spec_for_values(np.array([1, 50, 3]))
        assert spec == CodecSpec(kind=CodecKind.PACK, bits=6)

    def test_page_roundtrip(self):
        values = np.arange(1, 51)
        codec = BitPackCodec(BitPackCodec.spec_for_values(values), IntType())
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, len(values), state), values
        )

    def test_selective_decode_counts_only_positions(self):
        values = np.arange(100)
        codec = BitPackCodec(BitPackCodec.spec_for_values(values), IntType())
        assert not codec.decodes_whole_page
        selected = gather_values(codec, values, [3, 50, 99])
        np.testing.assert_array_equal(selected, [3, 50, 99])

    def test_rejects_text_type(self):
        spec = CodecSpec(kind=CodecKind.PACK, bits=8)
        with pytest.raises(CompressionError):
            BitPackCodec(spec, FixedTextType(4))

    def test_rejects_wrong_kind(self):
        with pytest.raises(CompressionError):
            BitPackCodec(CodecSpec(kind=CodecKind.DICT, bits=2, dictionary=(1,)), IntType())

    def test_negative_domain_rejected(self):
        with pytest.raises(CompressionError):
            BitPackCodec.spec_for_values(np.array([-5, 3]))

    def test_empty_domain_rejected(self):
        with pytest.raises(CompressionError):
            BitPackCodec.spec_for_values(np.array([], dtype=np.int64))
