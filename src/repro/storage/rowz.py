"""Compressed row pages.

The paper's three schemes "yield the same compression ratio for both row
and column data": a compressed *row* tuple is the concatenation of each
attribute's fixed-width packed value, padded to a whole byte per tuple
(ORDERS-Z: 92 bits → 12 bytes).  This codec lays tuples out exactly so.

Per-page codec state (the FOR base value of each frame-coded attribute)
is stored in the page-info area: eight bytes per frame attribute at the
tail of the payload region, in schema order.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import Codec, CodecKind, PageCodecState
from repro.compression.bitpack import (
    check_codes,
    gather_bits,
    gather_bytes,
    pack_bits,
    scatter_bits,
    scatter_bytes,
    unpack_bits,
)
from repro.compression.registry import build_codec
from repro.errors import PageFormatError, StorageError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_BYTES,
    TuplePageCodec,
    _assemble,
    page_payload_bytes,
)
from repro.types.schema import TableSchema

_BASE_SLOT = struct.Struct("<q")

_FRAME_KINDS = (CodecKind.FOR, CodecKind.FOR_DELTA)


def schema_is_compressed(schema: TableSchema) -> bool:
    """True when any attribute carries a non-identity codec spec."""
    return any(attr.spec.is_compressed for attr in schema)


class CompressedRowPageCodec(TuplePageCodec):
    """Row pages whose tuples are bit-packed per Figure 5 widths."""

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        self.schema = schema
        self.page_size = page_size
        self._codecs: list[Codec] = [
            build_codec(attr.spec, attr.attr_type) for attr in schema
        ]
        self._bits = [codec.bits_per_value for codec in self._codecs]
        self._bit_offsets = np.cumsum([0] + self._bits).tolist()
        self.row_bits = sum(self._bits)
        # One tuple occupies a whole number of bytes (ORDERS-Z: 12).
        self._stride = (self.row_bits + 7) // 8
        self._frame_attrs = [
            index
            for index, attr in enumerate(schema)
            if attr.spec.kind in _FRAME_KINDS
        ]
        base_area = _BASE_SLOT.size * len(self._frame_attrs)
        payload = page_payload_bytes(page_size) - base_area
        if payload <= 0:
            raise StorageError(
                f"page size {page_size} cannot hold {len(self._frame_attrs)} "
                "frame base slots"
            )
        self._payload_bytes = payload
        self.tuples_per_page = payload // self._stride
        if self.tuples_per_page <= 0:
            raise StorageError(
                f"compressed row stride {self._stride} exceeds page payload"
            )

    def encode(self, page_id: int, columns: dict[str, np.ndarray]) -> bytes:
        """Build one page from column slices (all the same length)."""
        count = self._tuple_count(columns)
        if not count:
            return _assemble(self.page_size, 0, b"", page_id, 0)
        packed = bytearray(self._payload_bytes)
        geometry = ((count,), (self._stride,))
        bases = []
        for index, attr in enumerate(self.schema):
            codec = self._codecs[index]
            bits = self._bits[index]
            if codec.is_variable:
                codes, base = self._chop(codec.encode_page(columns[attr.name])[0], count, bits), 0
            else:
                codes, base = codec.encode_codes(columns[attr.name])
            if index in self._frame_attrs:
                bases.append(base)
            offset = self._bit_offsets[index]
            if codec.text_codes:
                scatter_bytes(packed, *geometry, offset, bits // 8, codes)
            else:
                scatter_bits(packed, *geometry, offset, bits, check_codes(codes, bits))
        base_area = b"".join(_BASE_SLOT.pack(base) for base in bases)
        return _assemble(self.page_size, count, bytes(packed) + base_area, page_id, 0)

    @staticmethod
    def _chop(payload: bytes, count: int, bits: int) -> np.ndarray:
        """A variable codec's (RLE's) payload cut into ``count`` pieces of
        ``bits`` bits, its stand-in for codes — if it compressed that far."""
        stream_bytes = (count * bits + 7) // 8
        if len(payload) > stream_bytes:
            raise PageFormatError(
                f"{len(payload)}-byte payload does not fit {count} x {bits} bits "
                "of a row page"
            )
        return unpack_bits(payload.ljust(stream_bytes, b"\x00"), bits, count)

    def _gather(self, unit: bytes, counts: list[int], names) -> dict[str, np.ndarray]:
        """Per attribute of ``names``: one gather of its codes from every
        tuple slot of every page, one ``decode_codes`` over the ``(pages,
        tuples)`` codes with the pages' bases; no other attribute's bits
        are looked at.  Word reads overrun a tuple by at most
        ``GATHER_SLACK_BYTES``, which the page trailer covers.
        """
        pages = len(counts)
        total = sum(counts)
        geometry = ((pages, self.tuples_per_page), (self.page_size, self._stride))
        bases = np.ndarray(
            (len(self._frame_attrs), pages),
            "<i8",
            unit,
            PAGE_HEADER_BYTES + self._payload_bytes,
            (_BASE_SLOT.size, self.page_size),
        )
        columns = {}
        for name in self.schema.attribute_names if names is None else names:
            index = self.schema.index_of(name)
            codec = self._codecs[index]
            bits = self._bits[index]
            offset = 8 * PAGE_HEADER_BYTES + self._bit_offsets[index]
            if codec.text_codes:
                codes = gather_bytes(unit, *geometry, offset, bits // 8)
            else:
                codes = gather_bits(unit, *geometry, offset, bits)
            if codec.is_variable:
                # No fixed-width codes (RLE): the tuples' bits are the
                # page payload, cut up; re-pack and decode page by page.
                values = np.concatenate(
                    [
                        codec.decode_page(pack_bits(row[:n], bits), n, PageCodecState())
                        for row, n in zip(codes, counts)
                    ]
                )
            else:
                base = (
                    bases[self._frame_attrs.index(index)]
                    if index in self._frame_attrs
                    else 0
                )
                values = codec.decode_codes(codes, base).reshape(-1)[:total]
            columns[name] = values
        return columns
