"""Dense-packed page format (Figure 3).

Layout of every page, row or column::

    +--------+--------------------------- payload ----------------+-------+
    | count  | values, tightly packed                  ...padding | info  |
    | uint32 |                                                    | 16 B  |
    +--------+----------------------------------------------------+-------+

``count`` is the number of entries on the page.  The *page info* trailer
sits at a fixed offset from the end and holds the page id (which, with a
value's position on the page, gives the Record ID), a CRC32 checksum of
the rest of the page, and the codec's per-page state (the FOR base
value).

Trailer versions (both 16 bytes, so payload capacity never changes):

* **v1** (legacy): ``<qq`` — page id (int64), FOR base (int64).  No
  checksum; silent corruption is undetectable.
* **v2** (current): ``<IIq`` — page id (uint32), CRC32 (uint32), FOR
  base (int64).  The checksum covers every byte of the page except the
  CRC field itself, so a flipped bit anywhere — header, payload,
  padding, page id, or base — raises
  :class:`~repro.errors.ChecksumError` on decode.

All pages assembled by this module are v2; v1 pages are upgraded in
place when a legacy file is opened
(:func:`repro.storage.persist.open_table`).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Mapping

import numpy as np

from repro.compression.base import Codec, PageCodecState
from repro.compression.bitpack import unpack_streams
from repro.errors import ChecksumError, CompressionError, PageFormatError, StorageError
from repro.types.schema import TableSchema

DEFAULT_PAGE_SIZE = 4096
PAGE_HEADER_BYTES = 4
PAGE_TRAILER_BYTES = 16

_HEADER = struct.Struct("<I")
_TRAILER_V1 = struct.Struct("<qq")  # page_id, codec base value
_TRAILER = struct.Struct("<IIq")  # page_id, crc32, codec base value

#: Process-wide switch: set ``False`` to skip CRC verification on decode
#: (measured by ``benchmarks/bench_ablation_checksum.py``; never disable
#: in production use).  Checksums are still *written* while disabled.
_VERIFY_CHECKSUMS = True


def set_checksum_verification(enabled: bool) -> bool:
    """Toggle decode-time CRC verification; returns the previous value."""
    global _VERIFY_CHECKSUMS
    previous = _VERIFY_CHECKSUMS
    _VERIFY_CHECKSUMS = bool(enabled)
    return previous


def checksum_verification_enabled() -> bool:
    """Whether decodes currently verify page checksums."""
    return _VERIFY_CHECKSUMS


def page_payload_bytes(page_size: int) -> int:
    """Payload capacity of one page."""
    payload = page_size - PAGE_HEADER_BYTES - PAGE_TRAILER_BYTES
    if payload <= 0:
        raise StorageError(f"page size {page_size} too small for header/trailer")
    return payload


def page_checksum(page: bytes) -> int:
    """CRC32 over the whole page minus the trailer's CRC field."""
    crc_offset = len(page) - PAGE_TRAILER_BYTES + 4
    crc = zlib.crc32(page[:crc_offset])
    return zlib.crc32(page[crc_offset + 4 :], crc)


def _assemble(page_size: int, count: int, payload: bytes, page_id: int, base: int) -> bytes:
    capacity = page_payload_bytes(page_size)
    if len(payload) > capacity:
        raise PageFormatError(
            f"payload of {len(payload)} bytes exceeds page capacity {capacity}"
        )
    padding = b"\x00" * (capacity - len(payload))
    page = _HEADER.pack(count) + payload + padding + _TRAILER.pack(page_id, 0, base)
    return page[: -PAGE_TRAILER_BYTES + 4] + _HEADER.pack(page_checksum(page)) + page[-8:]


def _disassemble(page: bytes, page_size: int) -> tuple[int, bytes, int, int]:
    if len(page) != page_size:
        raise PageFormatError(f"page has {len(page)} bytes, expected {page_size}")
    (count,) = _HEADER.unpack_from(page, 0)
    page_id, crc, base = _TRAILER.unpack_from(page, page_size - PAGE_TRAILER_BYTES)
    if _VERIFY_CHECKSUMS:
        actual = page_checksum(page)
        if actual != crc:
            raise ChecksumError(
                f"page {page_id} checksum mismatch: stored {crc:#010x}, "
                f"computed {actual:#010x}"
            )
    payload = page[PAGE_HEADER_BYTES : page_size - PAGE_TRAILER_BYTES]
    return count, payload, page_id, base


def verify_unit(unit: bytes, page_size: int) -> None:
    """Check every page of ``unit`` (adjacent whole pages) against its CRC.

    The stored CRCs are read once, as a strided view; a page's checksum
    (:func:`page_checksum`'s) is then two ``crc32`` calls over memoryview
    ranges, no page copied.  Which page failed is for the per-page decode
    to say: a failing unit is decoded again page by page.
    """
    pages = len(unit) // page_size
    if not (_VERIFY_CHECKSUMS and pages):
        return
    view = memoryview(unit)
    crc_at = page_size - PAGE_TRAILER_BYTES + 4
    stored = np.ndarray(pages, "<u4", view, offset=crc_at, strides=page_size).tolist()
    crc32 = zlib.crc32
    for page, start in enumerate(range(0, pages * page_size, page_size)):
        crc = crc32(view[start + crc_at + 4 : start + page_size], crc32(view[start : start + crc_at]))
        if crc != stored[page]:
            raise ChecksumError(f"page {page} of a unit fails its checksum")


def upgrade_page_v1(page: bytes) -> bytes:
    """Rewrite a legacy v1 page trailer as v2, computing its checksum.

    v1 and v2 trailers are both 16 bytes, so the payload is untouched;
    legacy files carried no checksum, so the fresh CRC attests only to
    bytes as read (garbage in, checksummed garbage out).
    """
    page_id, base = _TRAILER_V1.unpack_from(page, len(page) - PAGE_TRAILER_BYTES)
    if not 0 <= page_id < 2**32:
        raise PageFormatError(f"v1 page id {page_id} out of range for upgrade")
    body = page[: len(page) - PAGE_TRAILER_BYTES]
    upgraded = body + _TRAILER.pack(page_id, 0, base)
    return (
        upgraded[: -PAGE_TRAILER_BYTES + 4]
        + _HEADER.pack(page_checksum(upgraded))
        + upgraded[-8:]
    )


def downgrade_page_v2(page: bytes) -> bytes:
    """Rewrite a v2 page trailer as legacy v1 (testing/compat helper)."""
    page_id, _crc, base = _TRAILER.unpack_from(page, len(page) - PAGE_TRAILER_BYTES)
    return page[: len(page) - PAGE_TRAILER_BYTES] + _TRAILER_V1.pack(page_id, base)


class TuplePageCodec:
    """What the plain and the bit-packed row page codec share.

    Pages of up to ``tuples_per_page`` tuples ``_stride`` bytes apart; a
    subclass lays a tuple out (``encode``) and reads attributes back
    from every tuple slot of adjacent pages at once (``_gather``).
    """

    page_size: int
    tuples_per_page: int
    _stride: int

    @property
    def stride(self) -> int:
        """On-disk bytes per tuple."""
        return self._stride

    def _tuple_count(self, columns: dict[str, np.ndarray]) -> int:
        """How many tuples ``columns`` (one page's slices) hold."""
        counts = {len(col) for col in columns.values()}
        if len(counts) != 1:
            raise PageFormatError(f"ragged column slices: {sorted(counts)}")
        count = counts.pop()
        if count > self.tuples_per_page:
            raise PageFormatError(
                f"{count} tuples exceed page capacity {self.tuples_per_page}"
            )
        return count

    def _check_claim(self, count: int) -> None:
        if count > self.tuples_per_page:
            raise PageFormatError(
                f"page claims {count} tuples, capacity is {self.tuples_per_page}"
            )

    def decode_columns(
        self, page: bytes, names: tuple[str, ...] | None = None
    ) -> tuple[int, int, Mapping[str, np.ndarray]]:
        """Parse a page into ``(page_id, count, columns)`` — of ``names``;
        by default of every attribute, each decoded when first read."""
        count, _payload, page_id, _base = _disassemble(page, self.page_size)
        self._check_claim(count)
        if names is None:
            return page_id, count, _ColumnsOnDemand(self, page, count)
        return page_id, count, self._gather(page, [count], names)

    def decode_unit(
        self, unit: bytes, names: tuple[str, ...] | None = None
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Verify and decode ``names`` over a *dense* unit: ``(page counts, columns)``.

        ``_gather`` flattens ``(pages, tuples_per_page)`` arrays, which
        needs every page but the last full and the last not empty; any
        other unit is malformed here and is decoded page by page.
        """
        verify_unit(unit, self.page_size)
        pages = len(unit) // self.page_size
        counts = np.ndarray((pages,), "<u4", unit, 0, (self.page_size,))
        if (
            not pages
            or len(unit) % self.page_size
            or not 0 < counts[-1] <= self.tuples_per_page
            or (counts[:-1] != self.tuples_per_page).any()
        ):
            raise PageFormatError(
                f"{len(unit)}-byte unit is not dense: page counts {counts.tolist()}"
            )
        return counts.astype(np.int64), self._gather(unit, counts.tolist(), names)


class _ColumnsOnDemand(Mapping):
    """Every attribute of one verified page, none decoded before it is read."""

    def __init__(self, codec: TuplePageCodec, page: bytes, count: int):
        self._codec, self._page, self._count = codec, page, count
        self._names = codec.schema.attribute_names
        self._decoded: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._decoded:
            if name not in self._names:
                raise KeyError(name)
            self._decoded.update(self._codec._gather(self._page, [self._count], (name,)))
        return self._decoded[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class RowPageCodec(TuplePageCodec):
    """Encodes/decodes row pages: whole tuples at a fixed stride.

    Tuples are stored back to back at :attr:`TableSchema.row_stride`
    (tuple width padded for alignment), each attribute at its fixed
    offset — the classic NSM layout without a slot directory.
    """

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        self.schema = schema
        self.page_size = page_size
        self._stride = schema.row_stride
        fields = {}
        offset = 0
        for attr in schema:
            disk_dtype = "<i4" if attr.attr_type.is_integer else f"S{attr.width}"
            fields[attr.name] = (disk_dtype, offset)
            offset += attr.width
        self._disk_dtype = np.dtype(
            {
                "names": list(fields),
                "formats": [fmt for fmt, _ in fields.values()],
                "offsets": [off for _, off in fields.values()],
                "itemsize": self._stride,
            }
        )
        self.tuples_per_page = page_payload_bytes(page_size) // self._stride
        if self.tuples_per_page <= 0:
            raise StorageError(
                f"row stride {self._stride} exceeds page payload "
                f"({page_payload_bytes(page_size)} bytes)"
            )

    def encode(self, page_id: int, columns: dict[str, np.ndarray]) -> bytes:
        """Build one page from column slices (all the same length)."""
        count = self._tuple_count(columns)
        rows = np.zeros(count, dtype=self._disk_dtype)
        for attr in self.schema:
            rows[attr.name] = columns[attr.name]
        return _assemble(self.page_size, count, rows.tobytes(), page_id, 0)

    def decode(self, page: bytes) -> tuple[int, np.ndarray]:
        """Parse a page into ``(page_id, structured row array)``."""
        count, payload, page_id, _base = _disassemble(page, self.page_size)
        self._check_claim(count)
        rows = np.frombuffer(payload, dtype=self._disk_dtype, count=count)
        return page_id, rows

    def _gather(self, unit: bytes, counts: list[int], names) -> dict[str, np.ndarray]:
        """One strided view per attribute over every tuple slot of every page."""
        shape = (len(counts), self.tuples_per_page)
        strides = (self.page_size, self._stride)
        total = sum(counts)
        columns = {}
        for name in self.schema.attribute_names if names is None else names:
            dtype, offset = self._disk_dtype.fields[name]
            field = np.ndarray(shape, dtype, unit, PAGE_HEADER_BYTES + offset, strides)
            # Either way a fresh contiguous copy, so the flattening is a view.
            field = field.astype(np.int64) if dtype.kind == "i" else field.copy()
            columns[name] = field.reshape(-1)[:total]
        return columns


class ColumnPageCodec:
    """Encodes/decodes column pages: single-attribute values via a codec."""

    def __init__(self, codec: Codec, page_size: int = DEFAULT_PAGE_SIZE):
        self.codec = codec
        self.page_size = page_size
        self.values_per_page = codec.values_per_page(page_payload_bytes(page_size))

    def encode(self, page_id: int, values: np.ndarray) -> bytes:
        """Build one page from a slice of the column."""
        if len(values) > self.values_per_page:
            raise PageFormatError(
                f"{len(values)} values exceed page capacity {self.values_per_page}"
            )
        payload, state = self.codec.encode_page(values)
        return _assemble(self.page_size, len(values), payload, page_id, state.base)

    def decode(self, page: bytes) -> tuple[int, np.ndarray]:
        """Parse a page into ``(page_id, value array)`` (full decode)."""
        count, payload, page_id, base = _disassemble(page, self.page_size)
        values = self.codec.decode_page(payload, count, PageCodecState(base=base))
        return page_id, values

    def decode_unit(self, unit: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Verify adjacent pages and unpack them: ``(counts, bases, codes)``.

        ``codes[p, i]`` is value ``i`` of page ``p``, undecoded: a row is
        as long as the unit's fullest page (a lone short page is unpacked
        no further than its values) and padding from ``counts[p]`` on.
        ``codec.decode_codes(codes, bases)`` gives the values, of all of
        them or of any selection that keeps a page's codes along the
        last axis.  Verbatim codes are a view of
        ``unit``; word reads of packed codes overrun a payload by at most
        ``GATHER_SLACK_BYTES``, which the page trailer covers.  A codec
        without fixed-width codes (RLE) raises, as does a unit with a
        corrupt page, without saying which: the caller goes back to
        :meth:`decode` or :meth:`decode_raw`, page by page.
        """
        codec = self.codec
        size = self.page_size
        pages = len(unit) // size
        if codec.is_variable:
            raise CompressionError(f"{type(codec).__name__} has no fixed-width codes")
        if not pages or len(unit) % size:
            raise PageFormatError(f"{len(unit)}-byte unit is not whole {size}-byte pages")
        verify_unit(unit, size)
        counts = np.ndarray((pages,), "<u4", unit, 0, (size,)).astype(np.int64)
        longest = max(counts.tolist())
        if longest > self.values_per_page:
            raise PageFormatError(
                f"page counts {counts.tolist()} exceed the capacity, {self.values_per_page}"
            )
        bases = np.ndarray((pages,), "<i8", unit, size - 8, (size,))
        bits = codec.bits_per_value
        if codec.text_codes or not codec.spec.is_compressed:
            # Stored verbatim, text or 32-bit integers: a view of the unit.
            kind = "S" if codec.text_codes else "<u"
            strides = (size, bits // 8)
            codes = np.ndarray(
                (pages, longest), f"{kind}{bits // 8}", unit, PAGE_HEADER_BYTES, strides
            )
        else:
            codes = unpack_streams(unit, (pages,), (size,), PAGE_HEADER_BYTES, bits, longest)
        return counts, bases, codes

    def encode_prefix(self, page_id: int, values: np.ndarray) -> tuple[bytes, int]:
        """Fill one page with a data-dependent number of leading values.

        Used for variable-capacity codecs (RLE); returns the page bytes
        and how many values were consumed.
        """
        payload, state, consumed = self.codec.encode_prefix(
            values, page_payload_bytes(self.page_size)
        )
        page = _assemble(self.page_size, consumed, payload, page_id, state.base)
        return page, consumed

    def decode_raw(self, page: bytes) -> tuple[int, int, bytes, PageCodecState]:
        """Parse a page without decoding values.

        Returns ``(page_id, count, payload, state)`` so scanners can do
        selective decodes via :meth:`Codec.decode_positions`.
        """
        count, payload, page_id, base = _disassemble(page, self.page_size)
        return page_id, count, payload, PageCodecState(base=base)
