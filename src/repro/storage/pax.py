"""PAX page layout (Ailamaki et al. [4], discussed in Section 6).

PAX keeps a page's *contents* identical to a row page — the same tuples
live on the same page — but groups each attribute's values into a
*minipage*, column-major within the page.  I/O behaviour is therefore
identical to a row store (whole pages, one file), while the CPU touches
only the minipages of the attributes a query accesses, giving
column-store cache behaviour.  The paper cites this as the middle point
between NSM and DSM; implementing it lets the ablation benches separate
the cache effect from the I/O effect.

Layout of a PAX page::

    +--------+-----------+-----------+-     -+----------+-------+
    | count  | minipage  | minipage  |  ...  | FOR bases| info  |
    | uint32 | attr 1    | attr 2    |       | 8B each  | 16 B  |
    +--------+-----------+-----------+-------+----------+-------+

Each minipage holds ``tuples_per_page`` packed values of one attribute
(the per-attribute codecs apply, as in compressed row pages).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import Codec, CodecKind, PageCodecState
from repro.compression.registry import build_codec
from repro.errors import PageFormatError, StorageError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    _disassemble,
    assemble_pages,
    page_counts,
    page_payload_bytes,
    page_payloads,
    refuse_variable_codecs,
    tuple_count,
)
from repro.types.schema import TableSchema

_BASE_SLOT = struct.Struct("<q")
_FRAME_KINDS = (CodecKind.FOR, CodecKind.FOR_DELTA)


class PaxPageCodec:
    """Encodes/decodes PAX pages: per-attribute minipages."""

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        self.schema = schema
        self.page_size = page_size
        self._codecs: list[Codec] = [
            build_codec(attr.spec, attr.attr_type) for attr in schema
        ]
        refuse_variable_codecs(schema, self._codecs)
        self._bits = [codec.bits_per_value for codec in self._codecs]
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
        # Capacity: each tuple needs packed_tuple_bits, but minipages are
        # byte-aligned, so solve for the largest count whose minipage
        # byte sizes fit.
        self.tuples_per_page = self._solve_capacity(payload)
        if self.tuples_per_page <= 0:
            raise StorageError("PAX tuple does not fit in one page")
        self._minipage_bytes = [
            self._minipage_size(bits, self.tuples_per_page) for bits in self._bits
        ]
        self._minipage_offsets = np.cumsum([0] + self._minipage_bytes[:-1]).tolist()

    @staticmethod
    def _minipage_size(bits: int, count: int) -> int:
        return (bits * count + 7) // 8

    def _solve_capacity(self, payload: int) -> int:
        total_bits = sum(self._bits)
        count = (payload * 8) // total_bits
        while count > 0:
            needed = sum(self._minipage_size(bits, count) for bits in self._bits)
            if needed <= payload:
                return count
            count -= 1
        return 0

    @property
    def stride(self) -> int:
        """Average stored bytes per tuple (for reporting)."""
        return (sum(self._bits) + 7) // 8

    def minipage_extent(self, attr_index: int) -> tuple[int, int]:
        """(byte offset within payload, byte length) of one minipage."""
        return self._minipage_offsets[attr_index], self._minipage_bytes[attr_index]

    def encode_pages(self, first_page_id: int, columns: dict[str, np.ndarray]) -> bytes:
        """The PAX pages ``columns`` (one equal-length slice per
        attribute) fill, in order, as one buffer; page ids count up from
        ``first_page_id``.  Minipages are per page, so each page's
        payload is encoded on its own."""
        counts = page_counts(tuple_count(columns), self.tuples_per_page)
        payloads = page_payloads(columns, counts, self._payload)
        return assemble_pages(self.page_size, first_page_id, counts, payloads)

    def _payload(self, columns: dict[str, np.ndarray]) -> bytes:
        """One page's minipages, then its frame bases."""
        parts = []
        bases = []
        for index, attr in enumerate(self.schema):
            codec = self._codecs[index]
            payload, state = codec.encode_page(columns[attr.name])
            if index in self._frame_attrs:
                bases.append(state.base)
            parts.append(payload.ljust(self._minipage_bytes[index], b"\x00"))
        body = b"".join(parts)
        base_area = b"".join(_BASE_SLOT.pack(base) for base in bases)
        return body.ljust(self._payload_bytes, b"\x00") + base_area

    def _split(self, page: bytes, verify: bool = True) -> tuple[int, int, bytes, list[int]]:
        count, payload, page_id, _base = _disassemble(page, self.page_size, verify)
        if count > self.tuples_per_page:
            raise PageFormatError(
                f"page claims {count} tuples, capacity is {self.tuples_per_page}"
            )
        base_area = payload[self._payload_bytes :]
        bases = [
            _BASE_SLOT.unpack_from(base_area, i * _BASE_SLOT.size)[0]
            for i in range(len(self._frame_attrs))
        ]
        return page_id, count, payload[: self._payload_bytes], bases

    def decode_columns(
        self, page: bytes, names: tuple[str, ...] | None = None, verify: bool = True
    ) -> tuple[int, int, dict[str, np.ndarray]]:
        """Decode the minipages of ``names`` (default: every attribute).

        One split — one CRC over the page, unless ``verify`` is false —
        serves every requested attribute; the other attributes'
        minipages are never touched, which is the PAX payoff.  Returns
        ``(page_id, count, columns)`` like the row page codecs.
        """
        page_id, count, payload, bases = self._split(page, verify)
        columns = {}
        for name in self.schema.attribute_names if names is None else names:
            index = self.schema.index_of(name)
            offset, length = self.minipage_extent(index)
            state = PageCodecState(base=self._base_for(index, bases))
            columns[name] = self._codecs[index].decode_page(
                payload[offset : offset + length], count, state
            )
        return page_id, count, columns

    def decode_unit(
        self, unit: bytes, names: tuple[str, ...] | None = None, verify: bool = True
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The row codecs' unit interface, ``(page counts, columns)``; the
        unit's minipages are still verified and decoded page by page."""
        size = self.page_size
        decoded = [
            self.decode_columns(unit[start : start + size], names, verify)
            for start in range(0, len(unit), size)
        ]
        counts = np.array([count for _page_id, count, _columns in decoded])
        columns = {
            name: np.concatenate([columns[name] for _id, _count, columns in decoded])
            for name in decoded[0][2]
        }
        return counts, columns

    def _base_for(self, attr_index: int, bases: list[int]) -> int:
        if attr_index in self._frame_attrs:
            return bases[self._frame_attrs.index(attr_index)]
        return 0

    def attribute_bits(self, name: str) -> int:
        """Packed width of one attribute's values."""
        return self._bits[self.schema.index_of(name)]
