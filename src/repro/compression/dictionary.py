"""Dictionary compression.

At load time an array of all distinct values of an attribute is built;
each value is then stored as a bit-packed index into that array
(Section 2.2.1: Bit packing is applied on top of Dictionary).  At read
time the index is retrieved through bit-shifting and then looked up.

Works for both integer and fixed-text attributes — the paper's example is
the two-valued ``MALE`` / ``FEMALE`` column stored as a single bit.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CodecKind, CodecSpec
from repro.compression.bitpack import BitCodedCodec, bits_needed
from repro.errors import CompressionError
from repro.types.datatypes import AttributeType


class DictionaryCodec(BitCodedCodec):
    """Maps values to bit-packed indexes into a load-time dictionary."""

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        if spec.kind is not CodecKind.DICT:
            raise CompressionError(f"DictionaryCodec got spec kind {spec.kind}")
        super().__init__(spec, attr_type)
        self._values = np.asarray(spec.dictionary, dtype=attr_type.numpy_dtype())
        if self._values.size == 0:
            raise CompressionError("dictionary must not be empty")
        expected_bits = bits_needed(self._values.size - 1)
        if spec.bits < expected_bits:
            raise CompressionError(
                f"{self._values.size}-entry dictionary needs {expected_bits} bits, "
                f"spec allows {spec.bits}"
            )
        self._code_of = {value: code for code, value in enumerate(self._values.tolist())}
        if len(self._code_of) != self._values.size:
            raise CompressionError("dictionary contains duplicate values")

    @property
    def dictionary(self) -> np.ndarray:
        """The ordered array of distinct values (codes are indexes)."""
        return self._values

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Translate raw values into dictionary codes."""
        values = np.asarray(values, dtype=self.attr_type.numpy_dtype())
        try:
            codes = np.fromiter(
                (self._code_of[value] for value in values.tolist()),
                dtype=np.int64,
                count=values.size,
            )
        except KeyError as exc:
            raise CompressionError(f"value not in dictionary: {exc.args[0]!r}") from exc
        return codes, 0

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        """Look the codes up (compressed execution compares
        :meth:`unpack_codes` directly and only looks up what qualifies)."""
        try:
            return self._values[codes]
        except IndexError as exc:
            raise CompressionError(
                f"decoded code outside {self._values.size}-entry dictionary"
            ) from exc

    @staticmethod
    def spec_for_values(values: np.ndarray) -> CodecSpec:
        """Build a dictionary spec from the observed distinct values."""
        values = np.asarray(values)
        if values.size == 0:
            raise CompressionError("cannot build a dictionary from an empty column")
        distinct = np.unique(values)
        return CodecSpec(
            kind=CodecKind.DICT,
            bits=bits_needed(distinct.size - 1),
            dictionary=tuple(distinct.tolist()),
        )
