"""Integrity sweeps and corruption accounting.

:class:`CorruptionReport` is the common currency of the fault-tolerance
subsystem: salvage-mode scans accumulate one per query (surfaced through
:class:`~repro.engine.executor.QueryResult`), and the sweep functions
here build one per table or directory:

* :func:`scrub_table` decodes **every page of every file** of a loaded
  table and records each page that fails checksum or decode, with an
  estimate of the rows it covered;
* :func:`verify_table` is the strict variant: raises
  :class:`~repro.errors.ChecksumError` if any page is bad;
* :func:`scrub_directory` opens a persisted table (tolerating torn and
  truncated files) and scrubs it, folding open-time damage into the
  same report.

Run as a CLI: ``python -m repro.storage.scrub DIR...`` scrubs saved
table directories; ``--self-test`` builds a table, injects seeded
faults, and checks that every one is pinpointed (used by ``make
scrub``).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.errors import ChecksumError, CompressionError, ReproError, StorageError

#: Sentinel page index for faults that affect a whole file (unreadable
#: metadata, unparseable file) rather than one page.
WHOLE_FILE = -1


@dataclass(frozen=True)
class PageFault:
    """One unreadable page (or whole file) found during a sweep."""

    file: str
    page: int
    rows_lost: int
    error: str

    def describe(self) -> str:
        where = "whole file" if self.page == WHOLE_FILE else f"page {self.page}"
        return f"{self.file}: {where} (~{self.rows_lost} rows): {self.error}"


@dataclass
class CorruptionReport:
    """Where corruption was found and how much data it cost."""

    faults: list[PageFault] = field(default_factory=list)
    #: Pages examined by the sweep or scan that built this report.
    pages_scanned: int = 0

    @property
    def is_clean(self) -> bool:
        return not self.faults

    @property
    def pages_skipped(self) -> int:
        return sum(1 for fault in self.faults if fault.page != WHOLE_FILE)

    @property
    def estimated_rows_lost(self) -> int:
        return sum(fault.rows_lost for fault in self.faults)

    def per_file(self) -> dict[str, int]:
        """Fault count per file name."""
        counts: dict[str, int] = {}
        for fault in self.faults:
            counts[fault.file] = counts.get(fault.file, 0) + 1
        return counts

    def record(self, file: str, page: int, rows_lost: int, error: Exception | str) -> None:
        self.faults.append(
            PageFault(file=file, page=page, rows_lost=rows_lost, error=str(error))
        )

    def merge(self, other: "CorruptionReport") -> "CorruptionReport":
        self.faults.extend(other.faults)
        self.pages_scanned += other.pages_scanned
        return self

    def summary(self) -> str:
        if self.is_clean:
            return f"clean ({self.pages_scanned} pages scanned)"
        lines = [
            f"{len(self.faults)} fault(s), ~{self.estimated_rows_lost} rows lost, "
            f"{self.pages_scanned} pages scanned:"
        ]
        lines.extend(f"  {fault.describe()}" for fault in self.faults)
        return "\n".join(lines)


# --- sweeps -------------------------------------------------------------------


def _scrub_paged_file(file, decode, span_of, report: CorruptionReport) -> None:
    for index in range(file.num_pages):
        report.pages_scanned += 1
        try:
            decode(file.read_page(index))
        except (StorageError, CompressionError) as exc:
            report.record(file.name, index, span_of(index), exc)


def scrub_table(table) -> CorruptionReport:
    """Decode every page of every file of ``table``; report the damage."""
    from repro.storage.table import ColumnTable

    report = CorruptionReport()
    if isinstance(table, ColumnTable):
        for column_file in table.column_files.values():
            _scrub_paged_file(
                column_file.file,
                column_file.page_codec.decode,
                lambda index, cf=column_file: cf.row_span_of_page(
                    index, table.num_rows
                ),
                report,
            )
    else:
        _scrub_paged_file(
            table.file,
            lambda page: table.decode_page(page, table.schema.attribute_names),
            table.row_span_of_page,
            report,
        )
    return report


def verify_table(table) -> CorruptionReport:
    """Strict sweep: returns the (clean) report or raises ChecksumError."""
    report = scrub_table(table)
    if not report.is_clean:
        raise ChecksumError(
            f"table {table.schema.name!r} failed verification: {report.summary()}"
        )
    return report


def scrub_partitioned(ptable) -> CorruptionReport:
    """Scrub every partition of a partitioned table into one report."""
    report = CorruptionReport()
    for partition in ptable.partitions:
        shard = scrub_table(partition.table)
        for fault in shard.faults:
            report.record(
                f"{fault.file}[p{partition.index}]",
                fault.page,
                fault.rows_lost,
                fault.error,
            )
        report.pages_scanned += shard.pages_scanned
    return report


def scrub_directory(directory: str | pathlib.Path) -> CorruptionReport:
    """Open a persisted table (salvaging what loads) and scrub it.

    Partitioned directories (those holding a ``manifest.json``) are
    swept partition by partition, faults tagged with the partition
    index.
    """
    from repro.storage.persist import (
        is_partitioned_directory,
        open_partitioned_table,
        open_table,
    )

    report = CorruptionReport()
    if is_partitioned_directory(directory):
        try:
            ptable = open_partitioned_table(directory, salvage=report)
        except ReproError as exc:
            report.record("manifest.json", WHOLE_FILE, 0, exc)
            return report
        return report.merge(scrub_partitioned(ptable))
    try:
        table = open_table(directory, salvage=report)
    except ReproError as exc:
        # Metadata too damaged to interpret the page files at all.
        report.record("meta.json", WHOLE_FILE, 0, exc)
        return report
    return report.merge(scrub_table(table))


# --- CLI ----------------------------------------------------------------------


def _self_test() -> int:
    """Inject seeded faults into a saved table and require detection."""
    import tempfile

    from repro.data.tpch import generate_orders
    from repro.storage.faults import drop_trailing_pages, flip_bit_on_disk, tear_file
    from repro.storage.layout import Layout
    from repro.storage.loader import load_table
    from repro.storage.persist import open_table, save_table

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        data = generate_orders(2_000, seed=7)
        for layout in (Layout.ROW, Layout.COLUMN, Layout.PAX):
            directory = tmp_path / layout.value
            save_table(load_table(data, layout), directory)
            clean = scrub_table(open_table(directory))
            pages_file = sorted(directory.glob("*.pages"))[0]
            flip_bit_on_disk(pages_file, byte=100, bit=3)
            tear_file(sorted(directory.glob("*.pages"))[-1], 4096)
            if sorted(directory.glob("*.pages"))[0].stat().st_size >= 3 * 4096:
                drop_trailing_pages(pages_file, 4096)
            report = scrub_directory(directory)
            ok = clean.is_clean and not report.is_clean
            print(f"[{layout.value}] clean scrub: {clean.summary()}")
            print(f"[{layout.value}] after faults: {report.summary()}")
            if not ok:
                failures += 1
    print("self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.scrub",
        description="Sweep persisted table directories for corruption.",
    )
    parser.add_argument("directories", nargs="*", help="saved table directories")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="inject seeded faults into a scratch table and verify detection",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return _self_test()
    if not args.directories:
        parser.error("give at least one directory, or --self-test")
    dirty = 0
    for directory in args.directories:
        report = scrub_directory(directory)
        print(f"{directory}: {report.summary()}")
        dirty += 0 if report.is_clean else 1
    return 1 if dirty else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
