"""Bit packing (null suppression).

Stores each attribute using as many bits as are required to represent the
maximum value in the domain (Section 2.2.1).  Values are packed LSB-first
into a contiguous bit stream; the paper uses bit-shifting instructions for
exactly this layout.

One bit layout, two kernels: :func:`gather_bits` reads and
:func:`scatter_bits` writes the ``bits``-wide field at ``bit_offset`` of
every fixed-stride record of a buffer (bit ``b`` of a record is bit
``b % 8`` of its byte ``b // 8``).  A compressed row page is such a
buffer with a record per tuple, a packed column page one with a record
per ``lcm(bits, 8)`` bits (:func:`pack_bits`, :func:`unpack_bits`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import Codec, CodecKind, CodecSpec, PageCodecState, require_int_array
from repro.errors import CompressionError
from repro.types.datatypes import AttributeType, IntType

_MAX_BITS = 63

#: Bytes a word read may run past the last byte of a field; a gathered
#: buffer must be readable this far beyond its last record's fields.
GATHER_SLACK_BYTES = 7


def bits_needed(max_value: int) -> int:
    """Bits required to represent non-negative values up to ``max_value``."""
    if max_value < 0:
        raise CompressionError(f"bit packing requires non-negative values: {max_value}")
    return max(1, int(max_value).bit_length())


def _check_width(bits: int) -> None:
    if not 1 <= bits <= _MAX_BITS:
        raise CompressionError(f"packed width must be in [1, {_MAX_BITS}]: {bits}")


def check_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """``codes`` as int64, every one a non-negative ``bits``-bit integer."""
    _check_width(bits)
    codes = require_int_array(codes, "pack_bits")
    if codes.size:
        lo = int(codes.min())
        hi = int(codes.max())
        if lo < 0:
            raise CompressionError(f"pack_bits got negative value {lo}")
        if hi >= (1 << bits):
            raise CompressionError(f"value {hi} does not fit in {bits} bits")
    return codes


def gather_bits(buffer, shape, strides, bit_offset: int, bits: int) -> np.ndarray:
    """The ``bits``-wide field at ``bit_offset`` of every record, as int64.

    ``shape`` records start ``strides`` bytes apart from the front of
    ``buffer``.  One little-endian word read per record (the narrowest
    of 1/2/4/8 bytes covering the field), one shift, one mask; a field
    spilling into a ninth byte ORs that byte in.  Words overrun their
    field by up to :data:`GATHER_SLACK_BYTES`, which ``buffer`` must cover.
    """
    first, shift = divmod(bit_offset, 8)
    span = shift + bits
    width = next(w for w in (1, 2, 4, 8) if 8 * w >= min(span, 64))
    word = np.ndarray(shape, f"<u{width}", buffer, first, strides)
    if span <= 8 * width:
        return (word >> shift).astype(np.int64) & ((1 << bits) - 1)
    ninth = np.ndarray(shape, np.uint8, buffer, first + 8, strides)
    value = (word >> np.uint64(shift)) | (ninth.astype(np.uint64) << np.uint64(64 - shift))
    return (value & np.uint64((1 << bits) - 1)).astype(np.int64)


def scatter_bits(buffer, shape, strides, bit_offset: int, bits: int, values) -> None:
    """OR ``values`` into the fields :func:`gather_bits` would read back.

    A byte at a time: byte ``k`` of a field takes bits ``8k - shift ...``
    of its value.  ``buffer`` is writable and zero where the fields go,
    ``values`` what :func:`check_codes` passed.
    """
    first, shift = divmod(bit_offset, 8)
    values = values.astype(np.uint64, copy=False)
    for k in range((shift + bits + 7) // 8):
        target = np.ndarray(shape, np.uint8, buffer, first + k, strides)
        low = 8 * k - shift
        part = values >> np.uint64(low) if low >= 0 else values << np.uint64(-low)
        target |= part.astype(np.uint8)


def gather_bytes(buffer, shape, strides, bit_offset: int, width: int) -> np.ndarray:
    """:func:`gather_bits` for a ``width``-byte text field: an ``S{width}`` array."""
    first, shift = divmod(bit_offset, 8)
    field = np.ndarray((*shape, width), np.uint8, buffer, first, (*strides, 1))
    if shift:
        above = np.ndarray((*shape, width), np.uint8, buffer, first + 1, (*strides, 1))
        field = (field >> shift) | (above << (8 - shift))
    return np.ascontiguousarray(field).view(f"S{width}")[..., 0]


def scatter_bytes(buffer, shape, strides, bit_offset: int, width: int, values) -> None:
    """:func:`scatter_bits` for ``S{width}`` text values."""
    first, shift = divmod(bit_offset, 8)
    data = np.ascontiguousarray(values, dtype=f"S{width}").view(np.uint8)
    data = data.reshape(*shape, width)
    field = np.ndarray(data.shape, np.uint8, buffer, first, (*strides, 1))
    field |= data << shift
    if shift:
        above = np.ndarray(data.shape, np.uint8, buffer, first + 1, (*strides, 1))
        above |= data >> (8 - shift)


def _stream_records(bits: int, count: int) -> tuple[int, int, int]:
    """``(records, values per record, bytes per record)`` of a packed stream.

    Its byte alignment repeats every ``lcm(bits, 8)`` bits, which makes
    it a buffer of fixed-stride records for the two kernels: 8 values in
    ``bits`` bytes at worst, one per record for whole-byte widths.
    """
    per_record = 8 // math.gcd(bits, 8)
    return -(-count // per_record), per_record, bits * per_record // 8


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack non-negative integers into a LSB-first bit stream."""
    values = check_codes(values, bits)
    if values.size == 0:
        return b""
    records, per_record, record_bytes = _stream_records(bits, values.size)
    padded = np.zeros(records * per_record, dtype=np.uint64)
    padded[: values.size] = values
    lanes = padded.reshape(records, per_record)
    stream = bytearray(records * record_bytes)
    for lane in range(per_record):
        scatter_bits(stream, (records,), (record_bytes,), lane * bits, bits, lanes[:, lane])
    return bytes(stream[: (values.size * bits + 7) // 8])


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` for ``count`` values."""
    _check_width(bits)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    stream_bytes = (count * bits + 7) // 8
    if len(data) < stream_bytes:
        raise CompressionError(
            f"bit stream of {len(data)} bytes too short for {count} x {bits} bits"
        )
    stream = bytes(data[:stream_bytes]).ljust(stream_bytes + GATHER_SLACK_BYTES, b"\x00")
    return unpack_streams(stream, (), (), 0, bits, count)


def unpack_streams(buffer, shape, strides, offset: int, bits: int, count: int) -> np.ndarray:
    """:func:`unpack_bits` over every packed stream of a buffer at once.

    ``shape`` streams of ``count`` values each start ``strides`` bytes
    apart from byte ``offset`` — ``(pages,)`` and ``(page size,)`` for
    the payloads of adjacent column pages, ``()`` and ``()`` for one
    stream; the result is ``(*shape, count)``.  One :func:`gather_bits`
    per lane of a record, over every record of every stream; a lane
    stops at the last value it holds, so ``buffer`` is read no further
    than :data:`GATHER_SLACK_BYTES` past a stream's last value.
    """
    _records, per_record, record_bytes = _stream_records(bits, count)
    values = np.empty((*shape, count), dtype=np.int64)
    for lane in range(min(per_record, count)):
        records = -(-(count - lane) // per_record)
        values[..., lane::per_record] = gather_bits(
            buffer, (*shape, records), (*strides, record_bytes), 8 * offset + lane * bits, bits
        )
    return values


class BitCodedCodec(Codec):
    """A codec whose page payload is the bit-packed stream of its codes."""

    def encode_page(self, values: np.ndarray) -> tuple[bytes, PageCodecState]:
        codes, base = self.encode_codes(values)
        return pack_bits(codes, self.spec.bits), PageCodecState(base=base)

    def unpack_codes(self, payload: bytes, count: int) -> np.ndarray:
        return unpack_bits(payload, self.spec.bits, count)


class BitPackCodec(BitCodedCodec):
    """Null-suppression codec for non-negative integer attributes."""

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        if spec.kind is not CodecKind.PACK:
            raise CompressionError(f"BitPackCodec got spec kind {spec.kind}")
        if not isinstance(attr_type, IntType):
            raise CompressionError("bit packing applies to integer attributes only")
        super().__init__(spec, attr_type)

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        return values, 0

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        return codes

    @staticmethod
    def spec_for_values(values: np.ndarray) -> CodecSpec:
        """Choose the packed width from the observed domain."""
        values = require_int_array(values, "bit packing")
        if values.size == 0:
            raise CompressionError("cannot size bit packing from an empty column")
        if int(values.min()) < 0:
            raise CompressionError("bit packing requires a non-negative domain")
        return CodecSpec(kind=CodecKind.PACK, bits=bits_needed(int(values.max())))
