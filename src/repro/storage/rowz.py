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

import numpy as np

from repro.compression.bitpack import (
    check_codes,
    gather_bits,
    gather_bytes,
    scatter_bits,
    scatter_bytes,
)
from repro.errors import StorageError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_BYTES,
    CodedPageCodec,
    tuple_count,
)
from repro.types.schema import TableSchema


def schema_is_compressed(schema: TableSchema) -> bool:
    """True when any attribute carries a non-identity codec spec."""
    return any(attr.spec.is_compressed for attr in schema)


class CompressedRowPageCodec(CodedPageCodec):
    """Row pages whose tuples are bit-packed per Figure 5 widths."""

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        super().__init__(schema, page_size)
        self._bit_offsets = np.cumsum([0] + self._bits).tolist()
        self._slot_bits = [
            (8 * PAGE_HEADER_BYTES + offset, 8 * self._stride) for offset in self._bit_offsets[:-1]
        ]
        self.tuples_per_page = self._payload_bytes // self._stride
        if self.tuples_per_page <= 0:
            raise StorageError(
                f"compressed row stride {self._stride} exceeds page payload"
            )

    def _payload(self, columns: dict[str, np.ndarray]) -> bytes:
        """One page's tuples, bit-packed, then its frame bases (codes
        and bases are per page, so pages are encoded one at a time)."""
        count = tuple_count(columns)
        packed = bytearray(self._payload_bytes)
        geometry = ((count,), (self._stride,))
        bases = []
        for index, attr in enumerate(self.schema):
            codec = self._codecs[index]
            bits = self._bits[index]
            codes, base = codec.encode_codes(columns[attr.name])
            if index in self._frame_attrs:
                bases.append(base)
            offset = self._bit_offsets[index]
            if codec.text_codes:
                scatter_bytes(packed, *geometry, offset, bits // 8, codes)
            else:
                scatter_bits(packed, *geometry, offset, bits, check_codes(codes, bits))
        return self._with_bases(packed, bases)

    def _codes(self, unit: bytes, pages: int, index: int) -> np.ndarray:
        """Attribute ``index``'s field of every tuple slot of every page,
        one gather.  Word reads overrun a tuple by at most
        ``GATHER_SLACK_BYTES``, which the page trailer covers."""
        geometry = ((pages, self.tuples_per_page), (self.page_size, self._stride))
        offset = self._slot_bits[index][0]
        bits = self._bits[index]
        if self._codecs[index].text_codes:
            return gather_bytes(unit, *geometry, offset, bits // 8)
        return gather_bits(unit, *geometry, offset, bits)
