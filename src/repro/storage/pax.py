"""PAX page layout (Ailamaki et al. [4], discussed in Section 6).

PAX keeps a page's *contents* identical to a row page — the same tuples
live on the same page — but groups each attribute's values into a
*minipage*, column-major within the page.  I/O behaviour is therefore
identical to a row store (whole pages, one file), while the CPU touches
only the minipages of the attributes a query accesses, giving
column-store cache behaviour.  The paper cites this as the middle point
between NSM and DSM; implementing it lets the pax-comparison experiment
separate the cache effect from the I/O effect.

Layout of a PAX page::

    +--------+-----------+-----------+-     -+----------+-------+
    | count  | minipage  | minipage  |  ...  | FOR bases| info  |
    | uint32 | attr 1    | attr 2    |       | 8B each  | 16 B  |
    +--------+-----------+-----------+-------+----------+-------+

Each minipage holds ``tuples_per_page`` packed values of one attribute
(the per-attribute codecs apply, as in compressed row pages), laid out
as a column page's payload is, so a minipage is read as column pages
are: one run of codes per attribute over every page of a unit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_BYTES, CodedPageCodec
from repro.types.schema import TableSchema


class PaxPageCodec(CodedPageCodec):
    """Encodes/decodes PAX pages: per-attribute minipages."""

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        super().__init__(schema, page_size)
        # Capacity: each tuple needs packed_tuple_bits, but minipages are
        # byte-aligned, so solve for the largest count whose minipage
        # byte sizes fit.
        self.tuples_per_page = self._solve_capacity(self._payload_bytes)
        if self.tuples_per_page <= 0:
            raise StorageError("PAX tuple does not fit in one page")
        self._minipage_bytes = [
            self._minipage_size(bits, self.tuples_per_page) for bits in self._bits
        ]
        self._minipage_offsets = np.cumsum([0] + self._minipage_bytes[:-1]).tolist()
        self._slot_bits = [
            (8 * (PAGE_HEADER_BYTES + offset), bits)
            for offset, bits in zip(self._minipage_offsets, self._bits)
        ]

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

    def _payload(self, columns: dict[str, np.ndarray]) -> bytes:
        """One page's minipages, then its frame bases."""
        parts = []
        bases = []
        for index, attr in enumerate(self.schema):
            payload, state = self._codecs[index].encode_page(columns[attr.name])
            if index in self._frame_attrs:
                bases.append(state.base)
            parts.append(payload.ljust(self._minipage_bytes[index], b"\x00"))
        return self._with_bases(b"".join(parts), bases)
