"""Identity codec: uncompressed storage through the codec interface.

Keeping uncompressed columns behind the same interface lets pages,
scanners and the cost model treat every column uniformly; the identity
codec simply delegates to the attribute type's fixed-width serializer.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, CodecKind, CodecSpec, PageCodecState
from repro.errors import CompressionError
from repro.types.datatypes import AttributeType


class IdentityCodec(Codec):
    """Stores values verbatim at the attribute type's fixed width."""

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        if spec.kind is not CodecKind.NONE:
            raise CompressionError(f"IdentityCodec got spec kind {spec.kind}")
        if spec.bits != attr_type.width * 8:
            raise CompressionError(
                f"identity spec width {spec.bits} bits does not match "
                f"attribute width {attr_type.width} bytes"
            )
        super().__init__(spec, attr_type)
        self.text_codes = not attr_type.is_integer

    def encode_page(self, values: np.ndarray) -> tuple[bytes, PageCodecState]:
        return self.attr_type.encode_values(values), PageCodecState()

    def decode_page(self, payload: bytes, count: int, state: PageCodecState) -> np.ndarray:
        return self.attr_type.decode_values(payload, count)

    # Verbatim; an integer's code is its unsigned 32-bit pattern.

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        self.attr_type.validate(values)
        if self.attr_type.is_integer:
            return np.asarray(values).astype(np.uint32).astype(np.int64), 0
        return np.asarray(values, dtype=self.attr_type.numpy_dtype()), 0

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        if self.attr_type.is_integer:
            return codes.astype(np.uint32, copy=False).view(np.int32).astype(np.int64)
        return codes

    @staticmethod
    def spec_for_type(attr_type: AttributeType) -> CodecSpec:
        """The uncompressed spec for an attribute type."""
        return CodecSpec(kind=CodecKind.NONE, bits=attr_type.width * 8)
