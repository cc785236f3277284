"""Horizontal (row-range) table partitioning.

A partitioned table splits one logical relation into N contiguous
row-range partitions, each materialized as an ordinary table with its
own page files (checksummed v2 format, same as any other table).  The
split is balanced: partition sizes differ by at most one row, so a
partition count that does not divide the row count yields uneven
ranges, and a count larger than the row count yields empty partitions —
both states the parallel executor and its equivalence suite must
handle.

Positions inside a partition's page files are partition-local; the
partition's ``row_start`` converts them back to global Record IDs
(:mod:`repro.engine.parallel` applies that fixup when concatenating
worker output).

Partitioned tables persist as one directory per partition plus a
checksummed ``manifest.json`` (see :func:`repro.storage.persist.
save_partitioned_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.generator import GeneratedTable
from repro.errors import StorageError
from repro.storage.layout import Layout
from repro.storage.loader import BulkLoader
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.table import Table


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


@dataclass
class TablePartition:
    """One row-range shard: a plain table plus its global row window."""

    index: int
    row_start: int
    row_end: int
    table: Table

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start


class PartitionedTable:
    """A relation materialized as N contiguous row-range partitions."""

    def __init__(
        self,
        partitions: list[TablePartition],
        layout: Layout,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        if not partitions:
            raise StorageError("a partitioned table needs at least one partition")
        expected = 0
        for partition in partitions:
            if partition.row_start != expected or partition.row_end < partition.row_start:
                raise StorageError(
                    f"partition {partition.index} covers "
                    f"[{partition.row_start}, {partition.row_end}), expected to "
                    f"start at row {expected}"
                )
            if partition.table.num_rows != partition.num_rows:
                raise StorageError(
                    f"partition {partition.index} table holds "
                    f"{partition.table.num_rows} rows for a "
                    f"{partition.num_rows}-row range"
                )
            expected = partition.row_end
        self.partitions = list(partitions)
        self.layout = layout
        self.page_size = page_size
        self.schema = partitions[0].table.schema
        self.num_rows = expected

    @classmethod
    def from_data(
        cls,
        data: GeneratedTable,
        layout: Layout,
        num_partitions: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        verify: bool = False,
    ) -> "PartitionedTable":
        """Split generated data into balanced row ranges and load each."""
        loader = BulkLoader(page_size=page_size, verify=verify)
        partitions = []
        for index, (lo, hi) in enumerate(
            partition_ranges(data.num_rows, num_partitions)
        ):
            shard = GeneratedTable(
                schema=data.schema,
                columns={name: col[lo:hi] for name, col in data.columns.items()},
            )
            partitions.append(
                TablePartition(
                    index=index,
                    row_start=lo,
                    row_end=hi,
                    table=loader.load(shard, layout),
                )
            )
        return cls(partitions, layout, page_size=page_size)

    def __len__(self) -> int:
        return len(self.partitions)

    def partition_for_row(self, row: int) -> TablePartition:
        """The partition whose row window contains global row ``row``."""
        if 0 <= row < self.num_rows:
            for partition in self.partitions:
                if partition.row_start <= row < partition.row_end:
                    return partition
        raise StorageError(
            f"row {row} outside table {self.schema.name!r} "
            f"(0..{self.num_rows - 1})"
        )

    def manifest(self) -> dict:
        """JSON-ready description of the partitioning (no page data)."""
        return {
            "table": self.schema.name,
            "layout": self.layout.value,
            "page_size": self.page_size,
            "num_rows": self.num_rows,
            "partitions": [
                {
                    "index": partition.index,
                    "row_start": partition.row_start,
                    "row_end": partition.row_end,
                }
                for partition in self.partitions
            ],
        }
