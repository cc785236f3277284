"""A file of adjacent pages.

Pages are stored back to back; the storage layer holds the real bytes
in memory (the I/O *timing* is the job of :mod:`repro.iosim`, which only
needs sizes and access patterns, never the bytes themselves).

Reads go through :func:`repro.storage.retry.retry_io`: a subclass (see
:class:`repro.storage.faults.FaultyPagedFile`) may raise
:class:`~repro.errors.TransientIOError` from :meth:`_read_page_raw`, and
``read_page`` retries it with bounded exponential backoff before
surfacing the failure.

A file remembers which of its pages have passed their CRC since it was
loaded (:meth:`verified`, :meth:`mark_verified`), so the scan core
checks a page once per load rather than once per scan.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.retry import RetryPolicy, retry_io


class PagedFile:
    """An append-only sequence of fixed-size pages."""

    def __init__(
        self,
        name: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        retry_policy: RetryPolicy | None = None,
    ):
        if page_size <= 0:
            raise StorageError(f"page size must be positive: {page_size}")
        self.name = name
        self.page_size = page_size
        #: Backoff for transient read faults (``None`` → module default).
        self.retry_policy = retry_policy
        self._data = bytearray()
        #: One byte per page, 1 once the page has passed its CRC; pages
        #: past its end are unverified.
        self._verified = bytearray()

    def __getstate__(self) -> dict:
        # An unpickled file is freshly loaded: every page is checked on
        # its first read there.
        return {**self.__dict__, "_verified": bytearray()}

    @classmethod
    def from_bytes(
        cls,
        name: str,
        data: bytes,
        page_size: int = DEFAULT_PAGE_SIZE,
        retry_policy: RetryPolicy | None = None,
    ) -> "PagedFile":
        """Build a file from raw bytes, rejecting trailing partial pages.

        A byte count that is not a multiple of the page size means the
        tail page was torn mid-write (or the file was truncated); the
        floor division in :attr:`num_pages` would silently drop those
        bytes, so they are rejected here instead.
        """
        if len(data) % page_size != 0:
            raise StorageError(
                f"file {name!r} has {len(data)} bytes, not a multiple of page "
                f"size {page_size}: trailing partial page (torn write or "
                f"truncation)"
            )
        file = cls(name, page_size=page_size, retry_policy=retry_policy)
        file._data.extend(data)
        return file

    @property
    def num_pages(self) -> int:
        return len(self._data) // self.page_size

    @property
    def size_bytes(self) -> int:
        """Total file size in bytes."""
        return len(self._data)

    def append_pages(self, pages: bytes) -> int:
        """Append whole pages in one write; returns the first one's index.

        The pages are unverified, as every page of a fresh load is: a
        scan checks each one's CRC on its first read.
        """
        if len(pages) % self.page_size:
            raise StorageError(
                f"{len(pages)} bytes are not whole {self.page_size}-byte "
                f"pages for file {self.name!r}"
            )
        index = self.num_pages
        self._data.extend(pages)
        return index

    def read_page(self, index: int) -> bytes:
        """Read one page by index, retrying transient faults."""
        return retry_io(self._read_page_raw, self.retry_policy, index)

    def _read_page_raw(self, index: int) -> bytes:
        """One read attempt (fault-injection subclasses override this)."""
        return bytes(self._slice(index, 1))

    def read_pages(self, start: int, count: int) -> memoryview | bytes:
        """Read up to ``count`` adjacent pages as one buffer (an I/O unit).

        Whole pages from ``start``, at least one.  These bytes are in
        memory and never fault, so a unit is a read-only view of them,
        no copy; hold it no longer than its decode, since a live view
        stops :meth:`append_pages` from growing the buffer.  Under a
        subclass that intercepts :meth:`_read_page_raw` a unit is
        composed of :meth:`read_page` calls, each page injected, retried
        and counted on its own.  An error is page ``start``'s: a later
        page that cannot be read ends the unit before it and leads the
        next one.
        """
        if type(self)._read_page_raw is PagedFile._read_page_raw:
            return self._slice(start, count)
        pages = [self.read_page(start)]
        try:
            for index in range(start + 1, start + count):
                pages.append(self.read_page(index))
        except StorageError:
            pass
        return b"".join(pages)

    def _slice(self, start: int, count: int) -> memoryview:
        if not 0 <= start < start + count <= self.num_pages:
            raise StorageError(
                f"pages [{start}, {start + count}) out of range "
                f"[0, {self.num_pages}) in {self.name!r}"
            )
        size = self.page_size
        return memoryview(self._data).toreadonly()[start * size : (start + count) * size]

    def verified(self, start: int, count: int = 1) -> int:
        """How many of pages ``[start, start + count)`` have passed their
        CRC since this file was loaded.

        Only an exact :class:`PagedFile` counts any: a subclass may hand
        back bytes other than its buffer's (fault injection, a wrapper
        sharing another file's buffer), so every read of it is checked.
        """
        if type(self) is not PagedFile:
            return 0
        return self._verified.count(1, start, start + count)

    def mark_verified(self, start: int, count: int = 1) -> None:
        """Pages ``[start, start + count)`` just passed their CRC."""
        flags = self._verified
        if len(flags) < start + count:
            flags.extend(bytes(start + count - len(flags)))
        flags[start : start + count] = b"\x01" * count

    def corrupt(self, page: int, offset: int) -> None:
        """Flip every bit of byte ``offset`` of ``page`` in the live
        buffer, and forget that the page was verified (a testing aid)."""
        if not (0 <= page < self.num_pages and 0 <= offset < self.page_size):
            raise StorageError(f"no byte {offset} of page {page} in {self.name!r}")
        self._data[page * self.page_size + offset] ^= 0xFF
        if page < len(self._verified):
            self._verified[page] = 0

    def iter_pages(self, start: int = 0):
        """Yield pages in file order, from ``start``."""
        for index in range(start, self.num_pages):
            yield self.read_page(index)

    def __len__(self) -> int:
        return self.num_pages

    def __repr__(self) -> str:
        return (
            f"PagedFile({self.name!r}, pages={self.num_pages}, "
            f"bytes={self.size_bytes})"
        )
