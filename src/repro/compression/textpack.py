"""Null suppression for fixed-width text.

Figure 5 compresses the 69-byte ``L_COMMENT`` field with *pack, 28 bytes*:
the field is padded with NULs on disk, and packing stores only as many
bytes as the longest actual value in the domain — the text analogue of
bit packing's "as many bits as the maximum value requires".
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, CodecKind, CodecSpec, PageCodecState
from repro.errors import CompressionError
from repro.types.datatypes import AttributeType, FixedTextType


class TextPackCodec(Codec):
    """Stores fixed text truncated to the domain's maximum actual length."""

    text_codes = True

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        if spec.kind is not CodecKind.PACK:
            raise CompressionError(f"TextPackCodec got spec kind {spec.kind}")
        if not isinstance(attr_type, FixedTextType):
            raise CompressionError("TextPackCodec applies to fixed text only")
        if spec.bits % 8 != 0:
            raise CompressionError(
                f"text packing width must be whole bytes, got {spec.bits} bits"
            )
        super().__init__(spec, attr_type)
        self._packed_width = spec.bits // 8
        if self._packed_width > attr_type.width:
            raise CompressionError(
                f"packed width {self._packed_width} exceeds field width "
                f"{attr_type.width}"
            )

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        values = np.asarray(values, dtype=f"S{self.attr_type.width}")
        longest = max((len(v) for v in values.tolist()), default=0)
        if longest > self._packed_width:
            raise CompressionError(
                f"text value of length {longest} exceeds packed width "
                f"{self._packed_width}"
            )
        return np.ascontiguousarray(values, dtype=f"S{self._packed_width}"), 0

    def encode_page(self, values: np.ndarray) -> tuple[bytes, PageCodecState]:
        return self.encode_codes(values)[0].tobytes(), PageCodecState()

    def unpack_codes(self, payload: bytes, count: int) -> np.ndarray:
        expected = count * self._packed_width
        if len(payload) < expected:
            raise CompressionError(
                f"text payload of {len(payload)} bytes too short for "
                f"{count} x {self._packed_width}"
            )
        return np.frombuffer(payload[:expected], dtype=f"S{self._packed_width}")

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        return codes.astype(f"S{self.attr_type.width}")

    @staticmethod
    def spec_for_values(values: np.ndarray) -> CodecSpec:
        """Packed width = longest actual value in the domain."""
        values = np.asarray(values)
        if values.size == 0:
            raise CompressionError("cannot size text packing from an empty column")
        longest = max((len(v) for v in values.tolist()), default=1)
        return CodecSpec(kind=CodecKind.PACK, bits=max(1, longest) * 8)
