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


def _unit_checksums(unit, page_size: int) -> list[int]:
    """:func:`page_checksum` of every page of ``unit`` (adjacent whole
    pages): two ``crc32`` calls per page over memoryview ranges, no page
    copied."""
    view = memoryview(unit)
    crc_at = page_size - PAGE_TRAILER_BYTES + 4
    crc32 = zlib.crc32
    return [
        crc32(view[start + crc_at + 4 : start + page_size], crc32(view[start : start + crc_at]))
        for start in range(0, len(view) - page_size + 1, page_size)
    ]


def page_counts(count: int, capacity: int) -> list[int]:
    """Entries per page when ``count`` entries fill pages of ``capacity``
    in order: full pages, then the rest (none for no entries)."""
    full, rest = divmod(count, capacity)
    return [capacity] * full + [rest] * (rest > 0)


def tuple_count(columns: Mapping[str, np.ndarray]) -> int:
    """How many tuples ``columns``, one slice per attribute, hold."""
    counts = {len(col) for col in columns.values()}
    if len(counts) != 1:
        raise PageFormatError(f"ragged column slices: {sorted(counts)}")
    return counts.pop()


def page_payloads(columns: Mapping[str, np.ndarray], counts: list[int], encode) -> list[bytes]:
    """``encode`` of each page's slices of ``columns``, pages of ``counts`` tuples."""
    payloads = []
    start = 0
    for count in counts:
        payloads.append(encode({name: col[start : start + count] for name, col in columns.items()}))
        start += count
    return payloads


def assemble_pages(
    page_size: int, first_page_id: int, counts: list[int], payloads, bases=0
) -> bytes:
    """Adjacent pages, ids from ``first_page_id``, as one buffer.

    Page ``p`` holds ``counts[p]`` entries, the payload ``payloads[p]``
    (zero-padded to capacity) and the trailer base ``bases`` (one per
    page, or one for all).  ``payloads`` is one ``bytes`` per page or a
    ``(pages, n)`` ``uint8`` array of them.  Counts and trailers go in
    as strided arrays over the ``(pages, page_size)`` buffer, and each
    page's CRC is taken over it in place.
    """
    pages = len(counts)
    capacity = page_payload_bytes(page_size)
    array = isinstance(payloads, np.ndarray)
    longest = payloads.shape[1] if array else max(map(len, payloads), default=0)
    if longest > capacity:
        raise PageFormatError(f"payload of {longest} bytes exceeds page capacity {capacity}")
    buffer = np.zeros((pages, page_size), dtype=np.uint8)
    if array:
        buffer[:, PAGE_HEADER_BYTES : PAGE_HEADER_BYTES + longest] = payloads
    else:
        for page, payload in zip(buffer, payloads):
            page[PAGE_HEADER_BYTES : PAGE_HEADER_BYTES + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8
            )
    trailer = page_size - PAGE_TRAILER_BYTES
    buffer[:, :PAGE_HEADER_BYTES].view("<u4")[:, 0] = counts
    buffer[:, trailer : trailer + 4].view("<u4")[:, 0] = np.arange(
        first_page_id, first_page_id + pages
    )
    buffer[:, page_size - 8 :].view("<i8")[:, 0] = bases
    crcs = _unit_checksums(buffer.reshape(-1), page_size)
    buffer[:, trailer + 4 : trailer + 8].view("<u4")[:, 0] = crcs
    return buffer.tobytes()


def _disassemble(
    page: bytes, page_size: int, verify: bool = True
) -> tuple[int, bytes, int, int]:
    """``(count, payload, page id, base)``; the CRC is checked unless
    ``verify`` is false (the page passed it since its file was loaded)."""
    if len(page) != page_size:
        raise PageFormatError(f"page has {len(page)} bytes, expected {page_size}")
    (count,) = _HEADER.unpack_from(page, 0)
    page_id, crc, base = _TRAILER.unpack_from(page, page_size - PAGE_TRAILER_BYTES)
    if verify:
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

    The stored CRCs are read once, as a strided view, and compared with
    :func:`_unit_checksums`.  Which page failed is for the per-page
    decode to say: a failing unit is decoded again page by page.
    """
    pages = len(unit) // page_size
    if not pages:
        return
    crc_at = page_size - PAGE_TRAILER_BYTES + 4
    stored = np.ndarray(pages, "<u4", unit, offset=crc_at, strides=page_size).tolist()
    if _unit_checksums(unit, page_size) != stored:
        raise ChecksumError("a page of a unit fails its checksum")


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


def refuse_variable_codecs(schema: TableSchema, codecs: list[Codec]) -> None:
    """Row and PAX pages give every value a fixed-width slot, so a codec
    without one (RLE) is refused before any page is written."""
    for attr, codec in zip(schema, codecs):
        if codec.is_variable:
            raise StorageError(
                f"{schema.name}.{attr.name}: {attr.spec.kind.name} is a column "
                "codec; row and PAX pages hold fixed-width values"
            )


class TuplePageCodec:
    """What the plain and the bit-packed row page codec share.

    Pages of up to ``tuples_per_page`` tuples ``_stride`` bytes apart; a
    subclass lays one page's tuples out (``_payload``; the plain codec
    lays out every page of a run at once, ``_payloads``) and reads
    attributes back from every tuple slot of adjacent pages at once
    (``_gather``).
    """

    page_size: int
    tuples_per_page: int
    _stride: int

    @property
    def stride(self) -> int:
        """On-disk bytes per tuple."""
        return self._stride

    def encode_pages(self, first_page_id: int, columns: Mapping[str, np.ndarray]) -> bytes:
        """The pages ``columns`` (one equal-length slice per attribute)
        fill, in order and each full but the last, as one buffer; page
        ids count up from ``first_page_id``."""
        counts = page_counts(tuple_count(columns), self.tuples_per_page)
        return assemble_pages(
            self.page_size, first_page_id, counts, self._payloads(columns, counts)
        )

    def _payloads(self, columns, counts: list[int]):
        return page_payloads(columns, counts, self._payload)

    def _check_claim(self, count: int) -> None:
        if count > self.tuples_per_page:
            raise PageFormatError(
                f"page claims {count} tuples, capacity is {self.tuples_per_page}"
            )

    def decode_columns(
        self, page: bytes, names: tuple[str, ...] | None = None, verify: bool = True
    ) -> tuple[int, int, Mapping[str, np.ndarray]]:
        """Parse a page into ``(page_id, count, columns)`` — of ``names``;
        by default of every attribute, each decoded when first read."""
        count, _payload, page_id, _base = _disassemble(page, self.page_size, verify)
        self._check_claim(count)
        if names is None:
            return page_id, count, _ColumnsOnDemand(self, page, count)
        return page_id, count, self._gather(page, [count], names)

    def decode_unit(
        self, unit: bytes, names: tuple[str, ...] | None = None, verify: bool = True
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Verify (unless ``verify`` is false) and decode ``names`` over a
        *dense* unit: ``(page counts, columns)``.

        ``_gather`` flattens ``(pages, tuples_per_page)`` arrays, which
        needs every page but the last full and the last not empty; any
        other unit is malformed here and is decoded page by page.
        """
        if verify:
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

    def _payloads(self, columns, counts: list[int]) -> np.ndarray:
        """Every page's tuples in one pass: the run's tuple slots as one
        zeroed record array, one row of it per page."""
        rows = np.zeros((len(counts), self.tuples_per_page), dtype=self._disk_dtype)
        slots = rows.reshape(-1)[: sum(counts)]
        for attr in self.schema:
            slots[attr.name] = columns[attr.name]
        return rows.view(np.uint8)

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

    def encode_pages(self, first_page_id: int, values: np.ndarray) -> bytes:
        """The pages a slice of the column fills, in order, as one buffer;
        page ids count up from ``first_page_id``.

        Uncompressed values are laid out for every page in one pass.
        Any other codec encodes a page at a time
        (:meth:`Codec.encode_prefix`), so a variable-capacity one (RLE)
        decides where each page ends; the page headers say how many
        values each took.
        """
        codec = self.codec
        if not codec.spec.is_compressed:
            attr_type = codec.attr_type
            attr_type.validate(values)
            counts = page_counts(len(values), self.values_per_page)
            dtype = "<i4" if attr_type.is_integer else f"S{attr_type.width}"
            slots = np.zeros((len(counts), self.values_per_page), dtype=dtype)
            slots.reshape(-1)[: len(values)] = values
            payloads = slots.view(np.uint8)
            return assemble_pages(self.page_size, first_page_id, counts, payloads)
        capacity = page_payload_bytes(self.page_size)
        counts, payloads, bases = [], [], []
        position = 0
        while position < len(values):
            payload, state, consumed = codec.encode_prefix(values[position:], capacity)
            counts.append(consumed)
            payloads.append(payload)
            bases.append(state.base)
            position += consumed
        return assemble_pages(self.page_size, first_page_id, counts, payloads, bases)

    def decode(self, page: bytes, verify: bool = True) -> tuple[int, np.ndarray]:
        """Parse a page into ``(page_id, value array)`` (full decode)."""
        count, payload, page_id, base = _disassemble(page, self.page_size, verify)
        values = self.codec.decode_page(payload, count, PageCodecState(base=base))
        return page_id, values

    def decode_unit(
        self, unit: bytes, verify: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Verify adjacent pages (unless ``verify`` is false) and unpack
        them: ``(counts, bases, codes)``.

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
        if verify:
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

    def decode_raw(
        self, page: bytes, verify: bool = True
    ) -> tuple[int, int, bytes, PageCodecState]:
        """Parse a page without decoding values.

        Returns ``(page_id, count, payload, state)`` so scanners can do
        selective decodes via :meth:`Codec.decode_positions`.
        """
        count, payload, page_id, base = _disassemble(page, self.page_size, verify)
        return page_id, count, payload, PageCodecState(base=base)
