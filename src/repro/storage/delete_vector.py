"""Delete vectors: a bitmap over global row positions.

The C-Store design the paper assumes (Figure 1) never updates the
read-optimized store in place: deletes are *marked* in a small
side-structure and physically reclaimed at the next bulk merge.  This
module is that side-structure — one bit per global Record ID, spanning
both the immutable base table (positions ``[0, base_rows)``) and the
write store's staged rows (positions ``[base_rows, total_rows)``), so
a single vector describes the whole hybrid table.

The in-memory form is a packed ``uint8`` numpy bitmap with vectorized
membership (:meth:`DeleteVector.is_deleted`) and a read-only
:meth:`DeleteVector.snapshot` — the deleted-mask and its prefix counts,
exactly what the hybrid scan layer needs to filter deleted rows out of
a base scan and remap the survivors' positions to rebuilt-table
coordinates.

The serialized form (:meth:`DeleteVector.to_bytes`) is paged and
checksummed like every other on-disk structure in the storage layer: a
fixed header (magic, version, logical size, page payload size, page
count) protected by its own CRC32, followed by fixed-size payload pages
each carrying a CRC32 trailer.  ``tests/test_property_codecs.py``
property-tests the codec: roundtrip, set/clear idempotence, popcount
against a pure-Python oracle, and empty/full/boundary pages.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import ChecksumError, StorageError

#: Serialized-form magic + version (bumped on incompatible change).
_MAGIC = b"RDV1"
_FORMAT_VERSION = 1
#: Header: magic, version, logical size (bits), page payload bytes,
#: page count, then a CRC32 over everything before it.
_HEADER = struct.Struct("<4sIQII")
_CRC = struct.Struct("<I")

#: Default payload bytes per serialized page (8192 deleted-row bits).
DEFAULT_PAGE_BYTES = 1024


class DeleteVector:
    """A growable bitmap over global row positions.

    ``size`` is the number of addressable positions; bits default to
    zero (live).  Setting a bit marks the row deleted; the structure is
    idempotent in both directions (re-deleting or re-clearing a row is
    a no-op and reports so).
    """

    __slots__ = ("_size", "_bits")

    def __init__(self, size: int = 0):
        if size < 0:
            raise StorageError(f"delete vector size must be >= 0: {size}")
        self._size = int(size)
        self._bits = np.zeros((self._size + 7) // 8, dtype=np.uint8)

    # --- shape ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of addressable positions (live + deleted)."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def grow(self, new_size: int) -> None:
        """Extend the addressable range; new positions start live."""
        if new_size < self._size:
            raise StorageError(
                f"delete vector cannot shrink: {self._size} -> {new_size}"
            )
        self._size = int(new_size)
        needed = (self._size + 7) // 8
        if needed > len(self._bits):
            grown = np.zeros(needed, dtype=np.uint8)
            grown[: len(self._bits)] = self._bits
            self._bits = grown

    def copy(self) -> "DeleteVector":
        dup = DeleteVector(0)
        dup._size = self._size
        dup._bits = self._bits.copy()
        return dup

    # --- bit operations ---------------------------------------------------

    def _check(self, position: int) -> int:
        position = int(position)
        if not 0 <= position < self._size:
            raise StorageError(
                f"position {position} outside delete vector [0, {self._size})"
            )
        return position

    def set(self, position: int) -> bool:
        """Mark one position deleted; True when it was live before."""
        position = self._check(position)
        byte, bit = divmod(position, 8)
        mask = np.uint8(1 << bit)
        was_live = not (self._bits[byte] & mask)
        self._bits[byte] |= mask
        return bool(was_live)

    def clear(self, position: int) -> bool:
        """Mark one position live again; True when it was deleted."""
        position = self._check(position)
        byte, bit = divmod(position, 8)
        mask = np.uint8(1 << bit)
        was_deleted = bool(self._bits[byte] & mask)
        self._bits[byte] &= np.uint8(~mask & 0xFF)
        return was_deleted

    def test(self, position: int) -> bool:
        """Whether one position is deleted."""
        position = self._check(position)
        byte, bit = divmod(position, 8)
        return bool(self._bits[byte] & np.uint8(1 << bit))

    def set_many(self, positions) -> int:
        """Mark a batch of positions deleted, all or none; returns how
        many were live (a position repeated in the batch counts once)."""
        positions = np.asarray(positions, dtype=np.int64)
        outside = positions[(positions < 0) | (positions >= self._size)]
        if outside.size:
            raise StorageError(
                f"position {int(outside[0])} outside delete vector [0, {self._size})"
            )
        positions = np.unique(positions)
        newly = positions.size - int(np.count_nonzero(self.is_deleted(positions)))
        np.bitwise_or.at(
            self._bits, positions >> 3, np.left_shift(1, positions & 7).astype(np.uint8)
        )
        return newly

    # --- vectorized views -------------------------------------------------

    def snapshot(self) -> tuple[np.ndarray | None, np.ndarray]:
        """``(deleted, shift)``: the vector as the hybrid read path needs it.

        ``deleted`` is the boolean deleted-mask over all ``size``
        positions, ``None`` when none is deleted.  ``shift[p]`` counts
        the deleted positions strictly before ``p`` (length ``size +
        1``), so a surviving row at global position ``p`` lands at
        rebuilt-table position ``p - shift[p]``.  Both are fresh,
        read-only arrays: later changes to the vector leave them as
        they are.
        """
        shift = np.zeros(self._size + 1, dtype=np.int64)
        deleted = None
        if not self.is_empty:
            deleted = np.unpackbits(self._bits, count=self._size, bitorder="little")
            deleted = deleted.view(bool)
            np.cumsum(deleted, out=shift[1:])
            deleted.flags.writeable = False
        shift.flags.writeable = False
        return deleted, shift

    def is_deleted(self, positions: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an array of positions."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) >= self._size
        ):
            raise StorageError(
                f"positions outside delete vector [0, {self._size})"
            )
        bits = self._bits[positions >> 3] >> (positions & 7).astype(np.uint8)
        return (bits & 1).astype(bool)

    def count(self) -> int:
        """Popcount: how many positions are deleted."""
        # Bits past ``size`` are never set, so the bytes count as they are.
        return int(np.unpackbits(self._bits).sum())

    @property
    def is_empty(self) -> bool:
        """True when no position is deleted."""
        return not self._bits.any()

    # --- paged checksummed codec -----------------------------------------

    def to_bytes(self, page_bytes: int = DEFAULT_PAGE_BYTES) -> bytes:
        """Serialize: CRC-protected header + fixed-size CRC-trailed pages.

        Every page carries exactly ``page_bytes`` of bitmap payload
        (the last page zero-padded to the boundary), so damage is
        localizable to one page and the decoder can verify lengths
        before touching payloads.
        """
        if page_bytes <= 0:
            raise StorageError(f"page_bytes must be positive: {page_bytes}")
        payload = self._bits[: (self._size + 7) // 8].tobytes()
        num_pages = (len(payload) + page_bytes - 1) // page_bytes
        head = _HEADER.pack(
            _MAGIC, _FORMAT_VERSION, self._size, page_bytes, num_pages
        )
        parts = [head, _CRC.pack(zlib.crc32(head))]
        for index in range(num_pages):
            chunk = payload[index * page_bytes : (index + 1) * page_bytes]
            chunk = chunk.ljust(page_bytes, b"\x00")
            parts.append(chunk)
            parts.append(_CRC.pack(zlib.crc32(chunk)))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeleteVector":
        """Decode :meth:`to_bytes` output, verifying every checksum."""
        if len(data) < _HEADER.size + _CRC.size:
            raise StorageError(
                f"delete vector blob too short: {len(data)} bytes"
            )
        head = data[: _HEADER.size]
        magic, version, size, page_bytes, num_pages = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise StorageError(f"bad delete vector magic: {magic!r}")
        if version != _FORMAT_VERSION:
            raise StorageError(f"unsupported delete vector version: {version}")
        (stored_crc,) = _CRC.unpack_from(data, _HEADER.size)
        if stored_crc != zlib.crc32(head):
            raise ChecksumError("delete vector header checksum mismatch")
        payload_bytes = (size + 7) // 8
        expected_pages = (payload_bytes + page_bytes - 1) // page_bytes
        if num_pages != expected_pages:
            raise StorageError(
                f"delete vector page count {num_pages} inconsistent with "
                f"size {size} at {page_bytes} bytes/page"
            )
        expected_len = (
            _HEADER.size + _CRC.size + num_pages * (page_bytes + _CRC.size)
        )
        if len(data) != expected_len:
            raise StorageError(
                f"delete vector blob is {len(data)} bytes, expected "
                f"{expected_len} (torn write or truncation)"
            )
        chunks = []
        offset = _HEADER.size + _CRC.size
        for index in range(num_pages):
            chunk = data[offset : offset + page_bytes]
            offset += page_bytes
            (page_crc,) = _CRC.unpack_from(data, offset)
            offset += _CRC.size
            if page_crc != zlib.crc32(chunk):
                raise ChecksumError(
                    f"delete vector page {index} checksum mismatch"
                )
            chunks.append(chunk)
        vector = cls(size)
        if payload_bytes:
            payload = b"".join(chunks)[:payload_bytes]
            vector._bits = np.frombuffer(payload, dtype=np.uint8).copy()
            # Bits past the logical size must be zero (they are never
            # addressable, so accepting garbage there would let two
            # unequal blobs decode to equal vectors).
            tail_bits = size & 7
            if tail_bits and (vector._bits[-1] >> tail_bits):
                raise StorageError(
                    "delete vector has set bits past its logical size"
                )
        return vector

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeleteVector):
            return NotImplemented
        # Bits past ``size`` are never set, and equal sizes mean equal
        # byte counts.
        return self._size == other._size and np.array_equal(self._bits, other._bits)

    def __repr__(self) -> str:
        return f"DeleteVector(size={self._size}, deleted={self.count()})"
