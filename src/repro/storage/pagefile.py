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

import numpy as np

from repro.errors import StorageError
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.retry import RetryPolicy, retry_io


class PagedFile:
    """An append-only sequence of fixed-size pages."""

    #: ``(page, its bytes, error)`` of the last page a window's check saw
    #: fail, kept for that page's own decode (the scan core).  A scan on
    #: another thread may take or replace it; the page's decode then
    #: checks it again and fails the same way.
    failed_check: tuple[int, bytes, Exception] | None = None

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
        #: past its end are unverified.  A flag only goes 0 → 1 for a
        #: page that passed, so two threads' scans cost at worst a second
        #: check of a page, never a skipped one.
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

    def read_pages(self, pages) -> memoryview | bytes:
        """Read the ascending ``pages`` (at least one) as one buffer: an
        I/O unit.

        These bytes are in memory and never fault: the unit is one slice
        of the file from ``pages[0]`` to ``pages[-1]``, and the listed
        pages are gathered out of it back to back — a read-only view, no
        copy, when they are adjacent; hold it no longer than its decode,
        since a live view stops :meth:`append_pages` from growing the
        buffer.  Under a subclass that intercepts :meth:`_read_page_raw`
        a unit is composed of :meth:`read_page` calls, one per listed
        page, each injected, retried and counted on its own.  An error is
        page ``pages[0]``'s: a later page that cannot be read ends the
        unit before it and leads the next one.  A page that is not listed
        is never read.
        """
        first = pages[0]
        if type(self)._read_page_raw is PagedFile._read_page_raw:
            count = pages[-1] - first + 1
            span = self._slice(first, count)
            if count == len(pages):
                return span
            # The listed pages, copied back to back.
            by_page = np.ndarray((count, self.page_size), np.uint8, span)
            return by_page.take(np.subtract(pages, first), axis=0).reshape(-1).data.toreadonly()
        read = [self.read_page(first)]
        try:
            for index in pages[1:]:
                read.append(self.read_page(index))
        except StorageError:
            pass
        return b"".join(read)

    def _slice(self, start: int, count: int) -> memoryview:
        if not 0 <= start < start + count <= self.num_pages:
            raise StorageError(
                f"pages [{start}, {start + count}) out of range "
                f"[0, {self.num_pages}) in {self.name!r}"
            )
        size = self.page_size
        return memoryview(self._data).toreadonly()[start * size : (start + count) * size]

    def verified(self, pages) -> int:
        """How many of ``pages`` have passed their CRC since this file was
        loaded.

        Only an exact :class:`PagedFile` counts any: a subclass may hand
        back bytes other than its buffer's (fault injection, a wrapper
        sharing another file's buffer), so every read of it is checked.
        """
        if type(self) is not PagedFile or not pages:
            return 0
        flags = self._verified
        first, stop = pages[0], pages[-1] + 1
        if stop - first == len(pages):
            return flags.count(1, first, stop)
        if stop > len(flags):
            pages = [page for page in pages if page < len(flags)]
        return sum(map(flags.__getitem__, pages))

    def mark_verified(self, pages) -> None:
        """``pages`` just passed their CRC (maybe on two threads at once:
        the flags grow by a count read afresh; unset ones past the end are harmless)."""
        flags = self._verified
        first, stop = pages[0], pages[-1] + 1
        if len(flags) < stop:
            flags.extend(bytes(max(0, stop - len(flags))))
        if stop - first == len(pages):
            flags[first:stop] = b"\x01" * (stop - first)
        else:
            for page in pages:
                flags[page] = 1

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
