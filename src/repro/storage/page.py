"""Dense-packed page format (Figure 3): one format, row or column.

Layout of every page::

    +--------+--------------------------- payload ----------------+-------+
    | count  | values, tightly packed                  ...padding | info  |
    | uint32 |                                                    | 16 B  |
    +--------+----------------------------------------------------+-------+

``count`` is the number of entries on the page: whole tuples, or one
attribute's values — a column page is the coded page of a one-attribute
schema (:class:`ColumnPageCodec`), read, checked and gathered as row
and PAX pages are: every coded page reads a code at a slot through one
gather (``CodedPageCodec._codes_at``), plain row pages by byte offset
and stride.  The *page info* trailer sits at a fixed offset from
the end and holds the page id (which, with a value's position on the
page, gives the Record ID), a CRC32 checksum of the rest of the page,
and a column page's codec state (its FOR base value; a tuple page keeps
one base slot per frame-coded attribute in front of the trailer).

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

from repro.compression.base import Codec, CodecKind, PageCodecState
from repro.compression.bitpack import gather_bits_at, gather_bytes_at, unpack_streams
from repro.compression.registry import build_codec
from repro.errors import ChecksumError, CompressionError, PageFormatError, SchemaError
from repro.errors import StorageError
from repro.types.schema import TableSchema

DEFAULT_PAGE_SIZE = 4096
PAGE_HEADER_BYTES = 4
PAGE_TRAILER_BYTES = 16

#: The share of a unit's tuples up to which :meth:`TuplePageCodec.take`
#: and :meth:`ColumnPageCodec.gather` read attributes at the wanted
#: tuples' slots alone; above it, they are unpacked over the unit and
#: taken from.  Fitted by ``tests/gather_breakeven.py`` (one window of
#: ROW, ROW-Z, PAX, PAX-Z, COLUMN and COLUMN-Z LINEITEM; the least-regret
#: threshold over all six).
GATHER_SHARE = 0.3

_HEADER = struct.Struct("<I")
_TRAILER_V1 = struct.Struct("<qq")  # page_id, codec base value
_TRAILER = struct.Struct("<IIq")  # page_id, crc32, codec base value
_BASE_SLOT = struct.Struct("<q")  # a frame-coded attribute's base, in a tuple page
_FRAME_KINDS = (CodecKind.FOR, CodecKind.FOR_DELTA)


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

    Page by page over memoryview ranges, no page copied: two ``crc32``
    calls against the CRC in the trailer.  The error names the first
    page that fails, as its own decode would (a unit of one page fails
    as that page).
    """
    view = memoryview(unit)
    crc_at = page_size - PAGE_TRAILER_BYTES + 4
    crc32 = zlib.crc32
    for start in range(0, len(view) - page_size + 1, page_size):
        at = start + crc_at
        page_id, stored, _base = _TRAILER.unpack_from(view, at - 4)
        actual = crc32(view[at + 4 : start + page_size], crc32(view[start:at]))
        if actual != stored:
            raise ChecksumError(
                f"page {page_id} checksum mismatch: stored {stored:#010x}, "
                f"computed {actual:#010x}"
            )


def check_placed(unit, pages, page_size: int) -> None:
    """Raise :class:`PageFormatError` unless each page of ``unit``
    (adjacent whole pages, read from the positions ``pages``) names its
    own position in its trailer: a CRC-valid page copied over another
    slot would hand its values that slot's Record IDs."""
    ids = np.ndarray((len(pages),), "<u4", unit, page_size - PAGE_TRAILER_BYTES, (page_size,))
    wrong = np.flatnonzero(ids != np.asarray(pages))
    if wrong.size:
        at = int(wrong[0])
        raise PageFormatError(f"page {pages[at]} holds page {ids[at]}")


def check_span(unit, page_size: int, span_of) -> None:
    """Raise :class:`PageFormatError` unless the last page of ``unit``
    (adjacent whole pages; a unit's decode holds the others full) holds
    ``span_of`` the id its trailer names: a CRC-valid page claiming
    fewer would shift every later Record ID."""
    end = len(unit)
    (count,) = _HEADER.unpack_from(unit, end - page_size)
    (page,) = _HEADER.unpack_from(unit, end - PAGE_TRAILER_BYTES)
    span = span_of(page)
    if count != span:
        raise PageFormatError(f"page {page} claims {count} entries, its span is {span}")


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


def unit_codes(
    codec: Codec, unit, pages: int, page_size: int, offset: int, count: int
) -> np.ndarray:
    """The codes of ``count`` values stored back to back from byte
    ``offset`` of each of ``pages`` adjacent pages of ``unit``:
    ``(pages, count)``, undecoded.

    A column page's payload is one such run of codes, at
    ``PAGE_HEADER_BYTES``; a PAX minipage is another, further on by its
    offset.  Verbatim codes, text or 32-bit integers, are a view of
    ``unit``; word reads of packed codes overrun a run by at most
    ``GATHER_SLACK_BYTES``, which the page trailer covers.
    """
    bits = codec.bits_per_value
    if codec.text_codes or not codec.spec.is_compressed:
        kind = "S" if codec.text_codes else "<u"
        strides = (page_size, bits // 8)
        return np.ndarray((pages, count), f"{kind}{bits // 8}", unit, offset, strides)
    return unpack_streams(unit, (pages,), (page_size,), offset, bits, count)


class TuplePageCodec:
    """What the row page codecs, plain and bit-packed, and PAX share.

    Pages of up to ``tuples_per_page`` tuples of ``_stride`` bytes; a
    subclass lays one page's tuples out (``_payload``; the plain codec
    lays out every page of a run at once, ``_payloads``) and reads
    attributes back from every tuple slot of adjacent pages at once
    (``_gather``) or from given slots alone (``_gather_at``).
    """

    page_size: int
    tuples_per_page: int
    _stride: int
    #: Whether pages hold a variable-capacity codec's values (RLE column pages).
    _variable = False

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
        return page_id, count, self._gather(page, count, names)

    def decode_unit(
        self, unit: bytes, names: tuple[str, ...] | None = None, verify: bool = True
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Verify (unless ``verify`` is false) and decode ``names`` over a
        *dense* unit (:meth:`_dense_counts`): ``(page counts, columns)``."""
        counts = self._dense_counts(unit, verify)
        return np.array(counts, np.int64), self._gather(unit, sum(counts), names)

    def take(self, unit: bytes, total: int, names, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Attributes ``names`` of the tuples at offsets ``rows``
        (ascending) of a dense unit of ``total`` tuples, as
        :meth:`decode_unit` found it.

        While ``rows`` are at most :data:`GATHER_SHARE` of the unit's
        tuples, each attribute is read at their slots alone; above it,
        it is unpacked over the unit and taken from (``_gather_at``), but
        for text, which unpacking would only copy.  Either way only the
        values taken are decoded: a code no row projects is never looked
        up.
        """
        unpack = rows.size > GATHER_SHARE * total
        return self._gather_at(unit, names, *np.divmod(rows, self.tuples_per_page), unpack)

    def _dense_counts(self, unit: bytes, verify: bool) -> list[int]:
        """Each page's entry count, once a unit of adjacent pages passed
        its checks: fixed-width codes, CRCs unless ``verify`` is false,
        whole pages, all full but the last, which is not empty (``_gather``
        flattens them); any other unit is decoded page by page."""
        if self._variable:
            raise CompressionError("variable-capacity pages have no fixed-width codes")
        size = self.page_size
        if verify:
            verify_unit(unit, size)
        pages, rest = divmod(len(unit), size)
        counts = np.ndarray((pages,), "<u4", unit, 0, (size,)).tolist()
        full = self.tuples_per_page
        if (
            not pages
            or rest
            or not 0 < counts[-1] <= full
            or counts[:-1] != [full] * (pages - 1)
        ):
            raise PageFormatError(f"{len(unit)}-byte unit is not dense: page counts {counts}")
        return counts


class _Ordinals(dict):
    """Attribute name -> ordinal in its schema; an unknown name raises
    :class:`~repro.errors.SchemaError`, as ``TableSchema.index_of`` does."""

    def __init__(self, schema: TableSchema):
        super().__init__((attr.name, index) for index, attr in enumerate(schema))
        self._table = schema.name

    def __missing__(self, name: str):
        raise SchemaError(f"no attribute {name!r} in table {self._table!r}")


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
            self._decoded.update(self._codec._gather(self._page, self._count, (name,)))
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

    def _gather(self, unit: bytes, total: int, names) -> dict[str, np.ndarray]:
        """The first ``total`` tuple slots of the unit's pages (all full but
        the last): one strided view per attribute over every slot of every
        page."""
        shape = (-(-total // self.tuples_per_page), self.tuples_per_page)
        strides = (self.page_size, self._stride)
        columns = {}
        for name in self.schema.attribute_names if names is None else names:
            dtype, offset = self._disk_dtype.fields[name]
            field = np.ndarray(shape, dtype, unit, PAGE_HEADER_BYTES + offset, strides)
            # Either way a fresh contiguous copy, so the flattening is a view.
            field = field.astype(np.int64) if dtype.kind == "i" else field.copy()
            columns[name] = field.reshape(-1)[:total]
        return columns

    def _gather_at(self, unit: bytes, names, pages, slots, unpack: bool = False):
        """Per attribute of ``names``: its field in slot ``slots[i]`` of the
        unit's page ``pages[i]``, for every ``i``, read alone through the
        strided view ``_gather`` copies whole — or, when ``unpack``, an
        integer field widened in every slot at once and taken from (text
        is read at its slots either way: unpacking it would only copy
        it); fresh arrays."""
        shape = (len(unit) // self.page_size, self.tuples_per_page)
        strides = (self.page_size, self._stride)
        rows = pages * self.tuples_per_page + slots if unpack else None
        columns = {}
        for name in names:
            dtype, offset = self._disk_dtype.fields[name]
            field = np.ndarray(shape, dtype, unit, PAGE_HEADER_BYTES + offset, strides)
            if dtype.kind != "i":
                columns[name] = field[pages, slots]
            elif unpack:
                columns[name] = field.astype(np.int64).reshape(-1)[rows]
            else:
                columns[name] = field[pages, slots].astype(np.int64)
        return columns


class CodedPageCodec(TuplePageCodec):
    """What compressed row pages, PAX pages and column pages share: every
    attribute stored as its codec's fixed-width codes.

    A page keeps one 8-byte base slot per frame-coded attribute (FOR,
    FOR-delta), in schema order, from ``_base_at``: in front of the
    trailer.  A subclass sets ``tuples_per_page``, lays a page's codes
    out (``_payload``) and says where they lie: attribute ``i``'s code in
    slot ``s`` of a page starts at bit ``_slot_bits[i] = (start, step)``,
    ``start + s * step`` from the page's front (``_codes_at``).  Unless a
    subclass says otherwise (compressed row pages interleave them), an
    attribute's codes lie back to back from byte ``start // 8``, which
    ``_codes`` reads.
    """

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        self._build_codecs(schema, page_size)
        for attr, codec in zip(schema, self._codecs):
            # A codec without fixed-width codes (RLE) is refused before
            # any page is written.
            if codec.is_variable:
                raise StorageError(
                    f"{schema.name}.{attr.name}: {attr.spec.kind.name} is a column "
                    "codec; row and PAX pages hold fixed-width values"
                )
        base_area = _BASE_SLOT.size * len(self._frame_attrs)
        self._payload_bytes = page_payload_bytes(page_size) - base_area
        if self._payload_bytes <= 0:
            raise StorageError(
                f"page size {page_size} cannot hold {len(self._frame_attrs)} "
                "frame base slots"
            )
        self._base_at = PAGE_HEADER_BYTES + self._payload_bytes

    def _build_codecs(self, schema: TableSchema, page_size: int) -> None:
        self.schema = schema
        self.page_size = page_size
        self._codecs: list[Codec] = [build_codec(attr.spec, attr.attr_type) for attr in schema]
        self._index = _Ordinals(schema)
        self._bits = [codec.bits_per_value for codec in self._codecs]
        # A tuple's codes, padded to a whole number of bytes (ORDERS-Z: 12).
        self._stride = (sum(self._bits) + 7) // 8
        self._frame_attrs = [
            index for index, attr in enumerate(schema) if attr.spec.kind in _FRAME_KINDS
        ]
        #: Per attribute ordinal: its base slot's rank on a page, or None
        #: (not frame-coded).
        self._base_slots: list[int | None] = [None] * len(schema)
        for rank, index in enumerate(self._frame_attrs):
            self._base_slots[index] = rank
        #: Attributes whose codec decodes a page whole to give any value (FOR-delta).
        self._whole_page = frozenset(
            attr.name for attr, codec in zip(schema, self._codecs) if codec.decodes_whole_page
        )

    def attribute_bits(self, name: str) -> int:
        """Packed width of one attribute's values."""
        return self._bits[self._index[name]]

    def _with_bases(self, body: bytes, bases: list[int]) -> bytes:
        """One page's payload: its codes, ``body``, then its frame bases."""
        base_area = b"".join(_BASE_SLOT.pack(base) for base in bases)
        return bytes(body).ljust(self._payload_bytes, b"\x00") + base_area

    def _gather(self, unit: bytes, total: int, names) -> dict[str, np.ndarray]:
        """Per attribute of ``names``: its codes on every page
        (``_codes``), then one ``decode_codes`` over the ``(pages,
        tuples)`` codes with the pages' bases, the first ``total`` of them
        (pages all full but the last) kept; no other attribute's codes are
        looked at."""
        pages = -(-total // self.tuples_per_page)
        columns = {}
        for name in self.schema.attribute_names if names is None else names:
            index = self._index[name]
            rank = self._base_slots[index]
            base = 0 if rank is None else self._bases(unit, pages)[rank]
            codes = self._codes(unit, pages, index)
            columns[name] = self._codecs[index].decode_codes(codes, base).reshape(-1)[:total]
        return columns

    def _bases(self, unit: bytes, pages: int) -> np.ndarray:
        """The frame bases of the unit's first ``pages`` pages, a view of
        the unit: ``(frame-coded attributes, pages)``, a row per
        ``_base_slots`` rank."""
        shape = (len(self._frame_attrs), pages)
        return np.ndarray(shape, "<i8", unit, self._base_at, (_BASE_SLOT.size, self.page_size))

    def _codes(self, unit: bytes, pages: int, index: int) -> np.ndarray:
        """Attribute ``index``'s codes on every page, back to back from its
        minipage's offset (a column page's payload is one minipage).  Text
        is copied, as the row codec copies it: a verbatim code is a view of
        the unit, and no decoded column may alias it."""
        codec = self._codecs[index]
        offset = self._slot_bits[index][0] // 8
        codes = unit_codes(codec, unit, pages, self.page_size, offset, self.tuples_per_page)
        return codes.copy() if codec.text_codes else codes

    def _codes_at(self, unit: bytes, index: int, pages: np.ndarray, slots: np.ndarray):
        """Attribute ``index``'s code in slot ``slots[i]`` of the unit's
        page ``pages[i]``, each read alone, one word at its bit offset
        (:func:`~repro.compression.bitpack.gather_bits_at`; text by
        :func:`~repro.compression.bitpack.gather_bytes_at`); no other
        code is unpacked.  Codes a whole number of bytes apart are read
        through a strided view of the attribute's slots, one bit shift for
        all; packed codes of a minipage through a view with a word at
        every byte of a page, each its own shift.  Verbatim integers on
        byte boundaries are read as stored, as :func:`unit_codes` does."""
        codec = self._codecs[index]
        bits = self._bits[index]
        start, step = self._slot_bits[index]
        pages_in_unit = len(unit) // self.page_size
        if step % 8:
            at = slots * step + start
            shape, strides = (pages_in_unit, self.page_size - 8), (self.page_size, 1)
            first, shift = at >> 3, (at & 7).view(np.uint64)
            return gather_bits_at(unit, 0, shape, strides, (pages, first), shift, bits)
        offset, shift = divmod(start, 8)
        shape, strides = (pages_in_unit, self.tuples_per_page), (self.page_size, step // 8)
        if codec.text_codes:
            return gather_bytes_at(unit, offset, shape, strides, (pages, slots), shift, bits // 8)
        if shift or codec.spec.is_compressed:
            return gather_bits_at(unit, offset, shape, strides, (pages, slots), shift, bits)
        return np.ndarray(shape, f"<u{bits // 8}", unit, offset, strides)[pages, slots]

    def _gather_at(self, unit: bytes, names, pages, slots, unpack: bool = False):
        """Per attribute of ``names``: its value in slot ``slots[i]`` of
        the unit's page ``pages[i]``, for every ``i`` — its code there,
        read at its bit offset alone (``_codes_at``) or, when ``unpack``
        and not text, unpacked with every code of the unit's pages
        (``_codes``) and taken, then decoded with that page's base.  Only the codes taken
        are decoded.  A FOR-delta value needs every delta before it on
        its page, so such an attribute is decoded over the unit's pages
        (``_gather``) and taken from."""
        columns = {}
        unit_pages = len(unit) // self.page_size
        rows = None
        for name in names:
            index = self._index[name]
            codec = self._codecs[index]
            if (unpack and not codec.text_codes) or name in self._whole_page:
                if rows is None:
                    rows = pages * self.tuples_per_page + slots
                if name in self._whole_page:
                    slots_in_unit = unit_pages * self.tuples_per_page
                    columns[name] = self._gather(unit, slots_in_unit, (name,))[name][rows]
                    continue
                codes = self._codes(unit, unit_pages, index).reshape(-1)[rows]
            else:
                codes = self._codes_at(unit, index, pages, slots)
            rank = self._base_slots[index]
            base = 0 if rank is None else self._bases(unit, unit_pages)[rank][pages]
            columns[name] = codec.decode_codes(codes[:, None], base)[:, 0]
        return columns

    def codes(self, unit: bytes, name: str, verify: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`decode_unit` of attribute ``name`` left undecoded:
        ``(page counts, codes in file order)``."""
        counts = self._dense_counts(unit, verify)
        codes = self._codes(unit, len(counts), self._index[name])
        return np.array(counts, np.int64), codes.reshape(-1)[: sum(counts)]


class ColumnPageCodec(CodedPageCodec):
    """Column pages: the coded page of a one-attribute schema, its codes
    filling the payload (``codec.values_per_page`` of them), its frame
    base in the trailer's base slot.  RLE, the one variable-capacity
    codec, is encoded (:meth:`Codec.encode_prefix`) and decoded
    (:meth:`decode`) a page at a time; every unit decode refuses it."""

    def __init__(self, schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE):
        self._build_codecs(schema, page_size)
        (self.codec,) = self._codecs
        self._variable = self.codec.is_variable
        self._payload_bytes = page_payload_bytes(page_size)
        self._base_at = page_size - _BASE_SLOT.size
        self._slot_bits = [(8 * PAGE_HEADER_BYTES, self.codec.bits_per_value)]
        self.tuples_per_page = self.codec.values_per_page(self._payload_bytes)
        self._names = schema.attribute_names

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
            counts = page_counts(len(values), self.tuples_per_page)
            dtype = "<i4" if attr_type.is_integer else f"S{attr_type.width}"
            slots = np.zeros((len(counts), self.tuples_per_page), dtype=dtype)
            slots.reshape(-1)[: len(values)] = values
            payloads = slots.view(np.uint8)
            return assemble_pages(self.page_size, first_page_id, counts, payloads)
        counts, payloads, bases = [], [], []
        position = 0
        while position < len(values):
            payload, state, consumed = codec.encode_prefix(values[position:], self._payload_bytes)
            counts.append(consumed)
            payloads.append(payload)
            bases.append(state.base)
            position += consumed
        return assemble_pages(self.page_size, first_page_id, counts, payloads, bases)

    def gather(
        self, unit: bytes, pages: np.ndarray, slots: np.ndarray, verify: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`decode_unit` at slot ``slots[i]`` of page ``pages[i]``
        alone, for every ``i``: ``(page counts, values)``.  By the rule
        :meth:`TuplePageCodec.take` follows, while the slots are at most
        :data:`GATHER_SHARE` of the unit's values only those codes are
        read, each at its bit offset (``_codes_at``); above it, the unit's
        codes are unpacked and taken from.  Either way only the codes
        taken are decoded.  A slot at or past its page's count raises:
        padding is never a value."""
        counts = self._dense_counts(unit, verify)
        unpack = len(slots) > GATHER_SHARE * sum(counts)
        counts = np.array(counts, np.int64)
        if np.logical_or.reduce(slots >= counts[pages]):
            raise CompressionError("position past the values of its page")
        return counts, self._gather_at(unit, self._names, pages, slots, unpack)[self._names[0]]

    def decode(self, page: bytes, verify: bool = True) -> tuple[int, np.ndarray]:
        """Parse a page into ``(page_id, value array)`` (full decode, any codec)."""
        count, payload, page_id, base = _disassemble(page, self.page_size, verify)
        values = self.codec.decode_page(payload, count, PageCodecState(base=base))
        return page_id, values
