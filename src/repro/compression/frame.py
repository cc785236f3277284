"""Frame-of-reference compression: FOR and FOR-delta.

Both schemes keep one *base value* per page (the first value of the page)
in the page trailer.  Plain **FOR** stores each value as its difference
from the base; **FOR-delta** stores each value as its difference from the
*previous* value (the first value of the page is the base itself).

FOR-delta typically needs fewer bits (a sorted key column becomes a run
of small steps) but reconstruction of value *i* requires a prefix sum of
all deltas before it, so any access decodes the entire page — the CPU
cost the paper isolates in Figure 9.

Deltas can be negative for non-monotonic data; the spec's ``zigzag`` flag
enables zig-zag encoding (``(d << 1) ^ (d >> 63)``) in that case, chosen
automatically by the advisor.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CodecKind, CodecSpec, require_int_array
from repro.compression.bitpack import BitCodedCodec, bits_needed
from repro.errors import CompressionError
from repro.types.datatypes import AttributeType, IntType


def zigzag_encode(deltas: np.ndarray) -> np.ndarray:
    """Map signed deltas onto non-negative integers (0,-1,1,-2 → 0,1,2,3)."""
    deltas = deltas.astype(np.int64, copy=False)
    return ((deltas << 1) ^ (deltas >> 63)).astype(np.int64)


def zigzag_decode(encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    encoded = encoded.astype(np.int64, copy=False)
    unsigned = encoded.astype(np.uint64)
    return ((unsigned >> np.uint64(1)).astype(np.int64)) ^ -(encoded & 1)


class _FrameCodecBase(BitCodedCodec):
    """Shared machinery for the two frame-of-reference variants."""

    _KIND: CodecKind

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        if spec.kind is not self._KIND:
            raise CompressionError(f"{type(self).__name__} got spec kind {spec.kind}")
        if not isinstance(attr_type, IntType):
            raise CompressionError("frame-of-reference applies to integer attributes only")
        super().__init__(spec, attr_type)

    def _codes(self, deltas: np.ndarray) -> np.ndarray:
        if self.spec.zigzag:
            return zigzag_encode(deltas)
        if deltas.size and int(deltas.min()) < 0:
            raise CompressionError(
                "negative delta without zigzag encoding; "
                "use choose_spec() to size the codec from the data"
            )
        return deltas

    def _deltas(self, codes: np.ndarray) -> np.ndarray:
        return zigzag_decode(codes) if self.spec.zigzag else codes

    @classmethod
    def _spec_from_deltas(cls, deltas: np.ndarray) -> CodecSpec:
        if deltas.size == 0:
            return CodecSpec(kind=cls._KIND, bits=1)
        lo = int(deltas.min())
        if lo < 0:
            encoded = zigzag_encode(deltas)
            return CodecSpec(
                kind=cls._KIND, bits=bits_needed(int(encoded.max())), zigzag=True
            )
        return CodecSpec(kind=cls._KIND, bits=bits_needed(int(deltas.max())))


class ForCodec(_FrameCodecBase):
    """Plain FOR: differences from the page's base value.

    Values can be decoded individually (no prefix sum), so selective
    access only decodes the requested positions.
    """

    _KIND = CodecKind.FOR

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        values = require_int_array(values, "FOR")
        base = int(values[0]) if values.size else 0
        return self._codes(values - base), base

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        return self._deltas(codes) + np.asarray(bases)[..., None]

    @staticmethod
    def spec_for_values(values: np.ndarray, page_capacity: int = 0) -> CodecSpec:
        """Size the codec so *any* page split of ``values`` encodes.

        The base of a page is its first value, so a delta is bounded by
        the column's global value range no matter where the loader cuts
        pages (``page_capacity`` is accepted for API symmetry but the
        bound is split-invariant).  Non-monotonic data can yield
        negative deltas and gets zig-zag encoding.
        """
        values = require_int_array(values, "FOR")
        if values.size == 0:
            return CodecSpec(kind=CodecKind.FOR, bits=1)
        value_range = int(values.max()) - int(values.min())
        nondecreasing = bool(np.all(np.diff(values) >= 0))
        if nondecreasing:
            return CodecSpec(kind=CodecKind.FOR, bits=bits_needed(value_range))
        extremes = zigzag_encode(np.array([value_range, -value_range]))
        return CodecSpec(
            kind=CodecKind.FOR, bits=bits_needed(int(extremes.max())), zigzag=True
        )


class ForDeltaCodec(_FrameCodecBase):
    """FOR-delta: differences from the previous value.

    Reconstructing any value requires the running sum of all preceding
    deltas in the page, so :attr:`decodes_whole_page` is true.
    """

    _KIND = CodecKind.FOR_DELTA

    @property
    def decodes_whole_page(self) -> bool:
        return True

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        values = require_int_array(values, "FOR-delta")
        base = int(values[0]) if values.size else 0
        return self._codes(np.diff(values, prepend=values[:1])), base

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        return np.cumsum(self._deltas(codes), axis=-1) + np.asarray(bases)[..., None]

    @staticmethod
    def spec_for_values(values: np.ndarray, page_capacity: int = 0) -> CodecSpec:
        """Size the codec from consecutive-value deltas.

        The encoder's deltas are a subset of the column's consecutive
        differences (every page's first delta is zero), so the bound is
        split-invariant; ``page_capacity`` is accepted for API symmetry.
        """
        values = require_int_array(values, "FOR-delta")
        if values.size == 0:
            return CodecSpec(kind=CodecKind.FOR_DELTA, bits=1)
        deltas = np.diff(values, prepend=values[0])
        return ForDeltaCodec._spec_from_deltas(deltas)
