"""Row and column tables: schema + paged files.

A :class:`RowTable` stores the whole relation in one file of row pages;
a :class:`ColumnTable` stores one file of column pages per attribute
(Figure 3).  Both expose the file-size arithmetic the I/O simulator
needs to model paper-scale scans without materializing paper-scale data.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError, SchemaError, StorageError
from repro.storage.layout import Layout
from repro.storage.page import DEFAULT_PAGE_SIZE, ColumnPageCodec, RowPageCodec
from repro.storage.pagefile import PagedFile
from repro.storage.rowz import CompressedRowPageCodec, schema_is_compressed
from repro.types.schema import Attribute, TableSchema


def make_row_page_codec(
    schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE
) -> "RowPageCodec | CompressedRowPageCodec":
    """Pick the plain or bit-packed row page codec for a schema."""
    if schema_is_compressed(schema):
        return CompressedRowPageCodec(schema, page_size)
    return RowPageCodec(schema, page_size)


class Table(abc.ABC):
    """Common interface for the two physical layouts."""

    def __init__(self, schema: TableSchema, num_rows: int, page_size: int):
        self.schema = schema
        self.num_rows = num_rows
        self.page_size = page_size

    @property
    @abc.abstractmethod
    def layout(self) -> Layout:
        """Physical layout of this table."""

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Total on-disk size of the materialized table."""

    @abc.abstractmethod
    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        """Bytes that a scan selecting ``attrs`` must read, per file.

        ``cardinality`` overrides the materialized row count so the I/O
        simulator can be driven at paper scale (60 M rows) while the
        engine executes on a small materialized table.
        """

    @abc.abstractmethod
    def read_column(self, name: str) -> np.ndarray:
        """Materialize one full column (testing/verification path)."""

    @abc.abstractmethod
    def paged_files(self):
        """``(file, decode, span_of)`` per page file: the file, the full
        decode of one of its pages, and the rows a page id covers."""

    def columns_dict(self) -> dict[str, np.ndarray]:
        """Materialize every column (testing/verification path)."""
        return {name: self.read_column(name) for name in self.schema.attribute_names}


class PagedTable(Table):
    """One file of whole-tuple pages: the row and PAX layouts.

    Both keep the same tuples on the same page of a single file, so
    page arithmetic, scan I/O and the verification read are shared; a
    subclass supplies its page codec and how a page decodes.
    """

    def __init__(
        self,
        schema: TableSchema,
        file: PagedFile,
        num_rows: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(schema, num_rows, page_size)
        self.file = file
        self.page_codec = self._make_page_codec()

    @abc.abstractmethod
    def _make_page_codec(self):
        """The codec of this layout's pages."""

    def decode_page(
        self, page: bytes, attrs: tuple[str, ...], verify: bool = True
    ) -> tuple[int, dict[str, np.ndarray]]:
        """Verify and decode ``attrs`` of one page: ``(tuple count, columns)``.

        ``verify=False`` skips the CRC, for a page that has passed it
        since its file was loaded (:meth:`PagedFile.verified`).
        """
        _page_id, count, columns = self.page_codec.decode_columns(page, attrs, verify)
        return count, columns

    @property
    def total_bytes(self) -> int:
        return self.file.size_bytes

    def pages_for_rows(self, cardinality: int) -> int:
        return math.ceil(cardinality / self.page_codec.tuples_per_page)

    def row_span_of_page(self, page_id: int) -> int:
        """Rows one page covers (corruption accounting; see ColumnFile)."""
        capacity = self.page_codec.tuples_per_page
        return max(0, min(capacity, self.num_rows - page_id * capacity))

    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        # Neither layout changes what a page contains, so a scan reads
        # the whole file no matter the projection.
        for name in attrs:
            self.schema.attribute(name)  # raises SchemaError when unknown
        rows = self.num_rows if cardinality is None else cardinality
        return {self.schema.name: self.pages_for_rows(rows) * self.page_size}

    def paged_files(self):
        names = self.schema.attribute_names
        yield self.file, lambda page: self.decode_page(page, names), self.row_span_of_page

    def read_column(self, name: str) -> np.ndarray:
        attr = self.schema.attribute(name)
        chunks = [
            self.decode_page(page, (name,))[1][name]
            for page in self.file.iter_pages()
        ]
        if not chunks:
            return np.zeros(0, dtype=attr.attr_type.numpy_dtype())
        return np.concatenate(chunks)


class RowTable(PagedTable):
    """One file of dense row pages."""

    def _make_page_codec(self):
        return make_row_page_codec(self.schema, self.page_size)

    @property
    def layout(self) -> Layout:
        return Layout.ROW

    @property
    def row_stride(self) -> int:
        return self.page_codec.stride


@dataclass
class ColumnFile:
    """One column's paged file plus its page codec.

    Variable-capacity codecs (RLE) carry a *page directory*:
    ``first_rows[i]`` is the global row id of page ``i``'s first value,
    so positional lookups stay O(log pages) regardless of how the data
    compressed.
    """

    name: str
    file: PagedFile
    page_codec: ColumnPageCodec
    first_rows: np.ndarray | None = None
    #: Measured average stored bits per value (variable codecs only);
    #: drives paper-scale size extrapolation.
    effective_bits: float | None = None

    @property
    def values_per_page(self) -> int:
        return self.page_codec.tuples_per_page

    @property
    def is_variable(self) -> bool:
        return self.page_codec.codec.is_variable

    def decode_page(self, page: bytes, verify: bool = True) -> np.ndarray:
        """Every value of one page, decoded; ``verify`` as
        :meth:`PagedTable.decode_page`'s."""
        return self.page_codec.decode(page, verify)[1]

    def decode_unit(
        self, unit: bytes, codes: bool = False, verify: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`decode_page` over adjacent pages read as one buffer:
        ``(value count per page, values — or ``codes`` — in file order)``.

        A unit with a corrupt page, or one that cannot be flattened (RLE
        pages, a page other than the last not full), raises.  A unit of
        one page has nothing to flatten: it is decoded as a page, whatever
        its codec.
        """
        if codes:
            return self.page_codec.codes(unit, self.name, verify)
        if len(unit) == self.page_codec.page_size:
            values = self.decode_page(unit, verify)
            return np.array([len(values)]), values
        counts, columns = self.page_codec.decode_unit(unit, (self.name,), verify)
        return counts, columns[self.name]

    def gather_unit(
        self, unit: bytes, pages: np.ndarray, in_page: np.ndarray, verify: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value ``in_page[i]`` of the unit's page ``pages[i]``, for every
        ``i``: ``(value count per page, values)``.

        Only the wanted codes are decoded (:meth:`ColumnPageCodec.gather`:
        read at their offsets, or unpacked with the unit's and taken, by
        the share of the unit they are), a unit of one page as any
        other, except where a value takes more: FOR-delta and RLE pages
        are decoded whole (:meth:`decode_unit`: an RLE unit of more than
        one page raises), then taken from.  An index at or past its
        page's count raises: padding is never a value.
        """
        if not self.page_codec.codec.decodes_whole_page:
            return self.page_codec.gather(unit, pages, in_page, verify)
        counts, values = self.decode_unit(unit, verify=verify)
        if (in_page >= counts[pages]).any():
            raise CompressionError("position past the values of its page")
        return counts, values[(np.cumsum(counts) - counts)[pages] + in_page]

    def locate(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(page index, value index on that page)`` of each global row position."""
        if self.first_rows is None:
            return np.divmod(positions, self.values_per_page)
        pages = self.page_of_positions(positions)
        return pages, positions - self.first_rows[pages]

    def page_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Page index containing each global row position."""
        if self.first_rows is None:
            return positions // self.values_per_page
        return (
            np.searchsorted(self.first_rows, positions, side="right") - 1
        ).astype(np.int64)

    def first_row_of_page(self, page_id: int) -> int:
        """Global row id of a page's first value."""
        if self.first_rows is None:
            return page_id * self.values_per_page
        return int(self.first_rows[page_id])

    def row_span_of_page(self, page_id: int, num_rows: int) -> int:
        """How many of the table's rows one page covers.

        Used by salvage scans and :mod:`repro.storage.scrub` to estimate
        the rows lost with an undecodable page without trusting its
        (possibly corrupt) entry count.
        """
        start = self.first_row_of_page(page_id)
        if self.first_rows is not None:
            if page_id + 1 < len(self.first_rows):
                end = int(self.first_rows[page_id + 1])
            else:
                end = num_rows
        else:
            end = min(num_rows, start + self.values_per_page)
        return max(0, end - start)


class ColumnTable(Table):
    """One file of dense column pages per attribute."""

    def __init__(
        self,
        schema: TableSchema,
        column_files: dict[str, ColumnFile],
        num_rows: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(schema, num_rows, page_size)
        missing = set(schema.attribute_names) - set(column_files)
        if missing:
            raise StorageError(f"missing column files: {sorted(missing)}")
        self.column_files = column_files
        #: Per-column constants the pipelined scan prepares on first use
        #: (``repro.engine.operators.scan_column.column_node``).
        self.scan_nodes: dict = {}

    @property
    def layout(self) -> Layout:
        return Layout.COLUMN

    @property
    def total_bytes(self) -> int:
        return sum(cf.file.size_bytes for cf in self.column_files.values())

    def column_file(self, name: str) -> ColumnFile:
        if name not in self.column_files:
            raise SchemaError(f"no column {name!r} in table {self.schema.name!r}")
        return self.column_files[name]

    def pages_for_rows(self, name: str, cardinality: int) -> int:
        column_file = self.column_file(name)
        if column_file.is_variable and column_file.effective_bits is not None:
            # Variable-capacity codecs: extrapolate from the measured
            # stored-bits-per-value density.
            from repro.storage.page import page_payload_bytes

            payload_bits = page_payload_bytes(self.page_size) * 8
            total_bits = cardinality * column_file.effective_bits
            return max(1, math.ceil(total_bits / payload_bits))
        return math.ceil(cardinality / column_file.values_per_page)

    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        rows = self.num_rows if cardinality is None else cardinality
        return {
            name: self.pages_for_rows(name, rows) * self.page_size
            for name in attrs
        }

    def paged_files(self):
        for column_file in self.column_files.values():
            span_of = functools.partial(column_file.row_span_of_page, num_rows=self.num_rows)
            yield column_file.file, column_file.decode_page, span_of

    def read_column(self, name: str) -> np.ndarray:
        column_file = self.column_file(name)
        chunks = []
        for page in column_file.file.iter_pages():
            chunks.append(column_file.decode_page(page))
        if not chunks:
            attr = self.schema.attribute(name)
            return np.zeros(0, dtype=attr.attr_type.numpy_dtype())
        return np.concatenate(chunks)


class PaxTable(PagedTable):
    """One file of PAX pages: row-store I/O, minipage-grouped contents."""

    def _make_page_codec(self):
        from repro.storage.pax import PaxPageCodec

        return PaxPageCodec(self.schema, self.page_size)

    @property
    def layout(self) -> Layout:
        return Layout.PAX


def build_column_file(
    schema: TableSchema, name: str, page_size: int = DEFAULT_PAGE_SIZE
) -> ColumnFile:
    """An empty column file with its codec built from the schema spec."""
    page_codec = _column_page_codec(schema.attribute(name), page_size)
    file = PagedFile(f"{schema.name}.{name}", page_size=page_size)
    return ColumnFile(name=name, file=file, page_codec=page_codec)


@functools.lru_cache(maxsize=1024)
def _column_page_codec(attribute: Attribute, page_size: int) -> ColumnPageCodec:
    """One attribute's column page codec, made once (it holds no state of
    its file): loads and merges build the same columns again and again."""
    return ColumnPageCodec(TableSchema(attribute.name, (attribute,)), page_size)
