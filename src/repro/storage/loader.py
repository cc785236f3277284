"""Bulk loader: in-memory columns → dense row or column files.

The paper's systems are bulk-loaded (warehouse style); the loader packs
pages to capacity with no free space, assigning sequential page ids per
file (the Record ID of a value is its page id plus its position on the
page).  Pages are encoded and appended an I/O unit at a time, the unit
a scan reads them back by (:meth:`encode_pages` of the page codecs).
"""

from __future__ import annotations

import numpy as np

from repro.cpusim.calibration import DEFAULT_CALIBRATION
from repro.data.generator import GeneratedTable
from repro.errors import StorageError
from repro.storage.layout import Layout
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.pagefile import PagedFile
from repro.storage.table import (
    ColumnTable,
    PagedTable,
    PaxTable,
    RowTable,
    Table,
    build_column_file,
)


class BulkLoader:
    """Loads generated tables into either physical layout.

    With ``verify=True`` every load ends with an integrity sweep
    (:func:`repro.storage.scrub.verify_table`): each page written is
    read back and decoded, so a bad page never leaves the loader.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, verify: bool = False):
        if page_size <= 0:
            raise StorageError(f"page size must be positive: {page_size}")
        self.page_size = page_size
        self.verify = verify
        #: Pages encoded and appended at once.
        self._unit_pages = max(1, DEFAULT_CALIBRATION.io_unit_bytes // page_size)

    def load(self, data: GeneratedTable, layout: Layout) -> Table:
        """Load ``data`` under the requested layout."""
        if layout is Layout.ROW:
            table = self.load_row(data)
        elif layout is Layout.PAX:
            table = self.load_pax(data)
        else:
            table = self.load_column(data)
        if self.verify:
            from repro.storage.scrub import verify_table

            verify_table(table)
        return table

    def load_pax(self, data: GeneratedTable) -> PaxTable:
        """Pack tuples into PAX pages (per-attribute minipages)."""
        return self._load_tuples(data, PaxTable)

    def load_row(self, data: GeneratedTable) -> RowTable:
        """Pack whole tuples into one file of row pages."""
        return self._load_tuples(data, RowTable)

    def _load_tuples(self, data: GeneratedTable, table_class: type[PagedTable]) -> PagedTable:
        """One file of whole-tuple pages, in the page codec ``table_class`` uses."""
        schema = data.schema
        file = PagedFile(schema.name, page_size=self.page_size)
        table = table_class(schema, file, data.num_rows, page_size=self.page_size)
        step = table.page_codec.tuples_per_page * self._unit_pages
        for start in range(0, data.num_rows, step):
            chunk = {
                attr.name: data.columns[attr.name][start : start + step] for attr in schema
            }
            file.append_pages(table.page_codec.encode_pages(file.num_pages, chunk))
        return table

    def load_column(self, data: GeneratedTable) -> ColumnTable:
        """Pack each attribute into its own file of column pages."""
        schema = data.schema
        column_files = {}
        for attr in schema:
            column_file = build_column_file(schema, attr.name, self.page_size)
            values = data.columns[attr.name]
            file, page_codec = column_file.file, column_file.page_codec
            if column_file.is_variable:
                # Where a page ends depends on the data: one run, then a
                # page directory from the pages' value counts.
                pages = page_codec.encode_pages(0, values)
                file.append_pages(pages)
                counts = np.ndarray(
                    (len(pages) // self.page_size,), "<u4", pages, 0, (self.page_size,)
                )
                column_file.first_rows = np.cumsum(counts, dtype=np.int64) - counts
                column_file.effective_bits = page_codec.codec.effective_bits(values)
            else:
                step = column_file.values_per_page * self._unit_pages
                for start in range(0, data.num_rows, step):
                    file.append_pages(
                        page_codec.encode_pages(file.num_pages, values[start : start + step])
                    )
            column_files[attr.name] = column_file
        return ColumnTable(schema, column_files, data.num_rows, page_size=self.page_size)


def load_table(
    data: GeneratedTable,
    layout: Layout,
    page_size: int = DEFAULT_PAGE_SIZE,
    verify: bool = False,
) -> Table:
    """Convenience wrapper around :class:`BulkLoader`."""
    return BulkLoader(page_size=page_size, verify=verify).load(data, layout)
