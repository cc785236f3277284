"""Seeded fault injection for the storage layer.

Two families of faults, both deterministic under a seed:

* **In-memory read faults** — a :class:`FaultPlan` wraps a table's
  :class:`~repro.storage.pagefile.PagedFile` objects in
  :class:`FaultyPagedFile`, which can raise
  :class:`~repro.errors.TransientIOError` for the first *n* reads of a
  page (exercising the retry path) and/or hand back bit-flipped copies
  of specific pages (exercising checksum detection and salvage scans).
  The underlying bytes are never modified, so the same plan replays
  identically.

* **On-disk injectors** — :func:`flip_bit_on_disk`, :func:`tear_file`,
  and :func:`drop_trailing_pages` mutate a persisted table directory the
  way real failures do: a flipped bit anywhere in a file, a write torn
  mid-page, a file truncated at a page boundary.

Nothing in the library imports this module on its hot paths; it exists
for tests, ``make scrub --self-test``, and benchmark harnesses.
"""

from __future__ import annotations

import pathlib
import random
import threading
from dataclasses import dataclass, field

from repro.errors import StorageError, TransientIOError
from repro.storage.pagefile import PagedFile
from repro.storage.retry import RetryPolicy, retry_io  # re-exported  # noqa: F401

_ANY = None


@dataclass
class _TransientFault:
    file: str | None
    page: int | None
    remaining: int

    def matches(self, file: str, page: int) -> bool:
        return (self.file is _ANY or self.file == file) and (
            self.page is _ANY or self.page == page
        )


@dataclass
class _BitFlip:
    file: str | None
    page: int
    byte: int | None
    bit: int | None

    def matches(self, file: str, page: int) -> bool:
        return (self.file is _ANY or self.file == file) and self.page == page


@dataclass
class FaultPlan:
    """A seeded, replayable schedule of storage faults.  Its hooks take
    the plan's lock: parallel partitions read through one plan on pool
    threads, and each fault fires exactly as often as scheduled."""

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False, compare=False, default_factory=threading.Lock)
    _transients: list[_TransientFault] = field(init=False, default_factory=list)
    _flips: list[_BitFlip] = field(init=False, default_factory=list)
    #: Observability for tests: how many transient errors were raised.
    transient_raised: int = 0
    #: How many page reads were handed back corrupted.
    pages_corrupted: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # --- scheduling ---------------------------------------------------------

    def schedule_transient_reads(
        self, failures: int, file: str | None = None, page: int | None = None
    ) -> "FaultPlan":
        """Fail the next ``failures`` matching reads with TransientIOError."""
        if failures < 0:
            raise StorageError(f"negative transient failure count: {failures}")
        self._transients.append(_TransientFault(file, page, failures))
        return self

    def schedule_bit_flip(
        self,
        page: int,
        file: str | None = None,
        byte: int | None = None,
        bit: int | None = None,
    ) -> "FaultPlan":
        """Corrupt every read of one page by flipping one bit.

        ``byte``/``bit`` default to a seeded random position, fixed at
        the first read so repeated reads see identical corruption.
        """
        self._flips.append(_BitFlip(file, page, byte, bit))
        return self

    # --- runtime hooks (called by FaultyPagedFile) ---------------------------

    def before_read(self, file: str, page: int) -> None:
        with self._lock:
            for fault in self._transients:
                if fault.remaining > 0 and fault.matches(file, page):
                    fault.remaining -= 1
                    self.transient_raised += 1
                    raise TransientIOError(
                        f"injected transient read fault: {file!r} page {page}"
                    )

    def corrupt_page(self, file: str, page: int, data: bytes) -> bytes:
        with self._lock:
            corrupted = None
            for flip in self._flips:
                if not flip.matches(file, page):
                    continue
                if flip.byte is None:
                    flip.byte = self._rng.randrange(len(data))
                if flip.bit is None:
                    flip.bit = self._rng.randrange(8)
                if corrupted is None:
                    corrupted = bytearray(data)
                corrupted[flip.byte] ^= 1 << flip.bit
            if corrupted is None:
                return data
            self.pages_corrupted += 1
            return bytes(corrupted)

    # --- wrapping -----------------------------------------------------------

    def wrap(self, file: PagedFile) -> "FaultyPagedFile":
        """A fault-injecting view over ``file`` (bytes are shared)."""
        return FaultyPagedFile(file, self)

    def wrap_table(self, table) -> None:
        """Route every paged file of ``table`` through this plan, in place."""
        from repro.storage.table import ColumnTable

        if isinstance(table, ColumnTable):
            for column_file in table.column_files.values():
                column_file.file = self.wrap(column_file.file)
        else:
            table.file = self.wrap(table.file)


class FaultyPagedFile(PagedFile):
    """A :class:`PagedFile` whose reads pass through a :class:`FaultPlan`.

    Shares the wrapped file's byte buffer, so appends through either
    object stay visible to both; only the read path is intercepted.
    """

    def __init__(self, inner: PagedFile, plan: FaultPlan):
        super().__init__(inner.name, inner.page_size, retry_policy=inner.retry_policy)
        self._data = inner._data
        self.plan = plan

    def _read_page_raw(self, index: int) -> bytes:
        self.plan.before_read(self.name, index)
        return self.plan.corrupt_page(self.name, index, super()._read_page_raw(index))


# --- on-disk injectors ----------------------------------------------------------


def flip_bit_on_disk(
    path: str | pathlib.Path,
    byte: int | None = None,
    bit: int | None = None,
    rng: random.Random | None = None,
) -> tuple[int, int]:
    """Flip one bit of a file in place; returns ``(byte_offset, bit)``."""
    path = pathlib.Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise StorageError(f"cannot flip a bit in empty file {path}")
    rng = rng or random.Random(0)
    if byte is None:
        byte = rng.randrange(len(data))
    if bit is None:
        bit = rng.randrange(8)
    data[byte] ^= 1 << bit
    path.write_bytes(bytes(data))
    return byte, bit


def tear_file(path: str | pathlib.Path, page_size: int) -> int:
    """Simulate a torn write: truncate the file mid-page.

    Leaves a trailing partial page (half of the last page), the state a
    crash mid-``write()`` produces.  Returns the new file size.
    """
    path = pathlib.Path(path)
    size = path.stat().st_size
    if size < page_size:
        raise StorageError(f"{path} too small ({size} B) to tear a page")
    torn = size - page_size // 2
    with open(path, "r+b") as handle:
        handle.truncate(torn)
    return torn


def drop_trailing_pages(path: str | pathlib.Path, page_size: int, pages: int = 1) -> int:
    """Truncate whole pages off the end of a file; returns the new size."""
    path = pathlib.Path(path)
    size = path.stat().st_size
    kept = size - pages * page_size
    if kept < 0:
        raise StorageError(f"cannot drop {pages} pages from {size}-byte {path}")
    with open(path, "r+b") as handle:
        handle.truncate(kept)
    return kept
