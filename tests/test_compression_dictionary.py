"""Dictionary-codec tests."""

import numpy as np
import pytest

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.dictionary import DictionaryCodec
from repro.errors import CompressionError
from repro.types.datatypes import FixedTextType, IntType
from tests.test_column_gather import gather_values


def make_text_codec(values, width=10):
    spec = DictionaryCodec.spec_for_values(values)
    return DictionaryCodec(spec, FixedTextType(width))


class TestDictionaryCodec:
    def test_paper_example_male_female_is_one_bit(self):
        values = np.array([b"MALE", b"FEMALE"] * 10, dtype="S6")
        spec = DictionaryCodec.spec_for_values(values)
        assert spec.bits == 1
        assert len(spec.dictionary) == 2

    def test_returnflag_is_two_bits(self):
        values = np.array([b"R", b"A", b"N"] * 5, dtype="S1")
        assert DictionaryCodec.spec_for_values(values).bits == 2

    def test_text_roundtrip(self):
        values = np.array(
            [b"AIR", b"RAIL", b"SHIP", b"AIR", b"TRUCK"] * 7, dtype="S10"
        )
        codec = make_text_codec(values)
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, len(values), state), values
        )

    def test_int_roundtrip(self):
        values = np.array([0, 5, 10, 5, 0] * 9)
        spec = DictionaryCodec.spec_for_values(values)
        codec = DictionaryCodec(spec, IntType())
        payload, state = codec.encode_page(values)
        np.testing.assert_array_equal(
            codec.decode_page(payload, len(values), state), values
        )

    def test_unknown_value_rejected_at_encode(self):
        codec = make_text_codec(np.array([b"A", b"B"], dtype="S10"))
        with pytest.raises(CompressionError):
            codec.encode_page(np.array([b"C"], dtype="S10"))

    def test_codes_are_dictionary_indexes(self):
        values = np.array([b"B", b"A", b"B"], dtype="S10")
        codec = make_text_codec(values)
        codes, _base = codec.encode_codes(values)
        np.testing.assert_array_equal(codec.dictionary[codes], values)

    def test_duplicate_dictionary_rejected(self):
        spec = CodecSpec(kind=CodecKind.DICT, bits=1, dictionary=(b"A", b"A"))
        with pytest.raises(CompressionError):
            DictionaryCodec(spec, FixedTextType(4))

    def test_undersized_bits_rejected(self):
        spec = CodecSpec(
            kind=CodecKind.DICT, bits=1, dictionary=(b"A", b"B", b"C")
        )
        with pytest.raises(CompressionError):
            DictionaryCodec(spec, FixedTextType(4))

    def test_empty_dictionary_rejected(self):
        with pytest.raises(CompressionError):
            CodecSpec(kind=CodecKind.DICT, bits=1, dictionary=())

    def test_selective_decode(self):
        values = np.array([b"X", b"Y", b"Z"] * 20, dtype="S4")
        codec = make_text_codec(values, width=4)
        assert not codec.decodes_whole_page
        selected = gather_values(codec, values, [0, 30, 59])
        np.testing.assert_array_equal(selected, values[[0, 30, 59]])
