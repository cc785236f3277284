"""Horizontal (row-range) table partitioning.

A table is split on the fly into N contiguous row windows, one per
parallel task (:mod:`repro.engine.parallel`).  The split is balanced:
window sizes differ by at most one row, so a count that does not divide
the row count yields uneven ranges, and a count larger than the row
count yields empty windows — both states the parallel executor and its
equivalence suite must handle.
"""

from __future__ import annotations

from repro.errors import StorageError


def partition_ranges(num_rows: int, count: int) -> list[tuple[int, int]]:
    """Balanced contiguous half-open row ranges covering ``num_rows``.

    The first ``num_rows % count`` partitions get one extra row; with
    ``count > num_rows`` the tail partitions are empty ranges.
    """
    if count <= 0:
        raise StorageError(f"partition count must be positive: {count}")
    if num_rows < 0:
        raise StorageError(f"row count must be non-negative: {num_rows}")
    base, extra = divmod(num_rows, count)
    ranges = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
