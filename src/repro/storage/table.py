"""Row and column tables: schema + paged files.

A :class:`RowTable` stores the whole relation in one file of row pages;
a :class:`ColumnTable` stores one file of column pages per attribute
(Figure 3).  Both expose the file-size arithmetic the I/O simulator
needs to model paper-scale scans without materializing paper-scale data.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.compression.registry import build_codec
from repro.errors import CompressionError, PageFormatError, SchemaError, StorageError
from repro.storage.layout import Layout
from repro.storage.page import DEFAULT_PAGE_SIZE, ColumnPageCodec, RowPageCodec
from repro.storage.pagefile import PagedFile
from repro.storage.rowz import CompressedRowPageCodec, schema_is_compressed
from repro.types.schema import TableSchema


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
        self, page: bytes, attrs: tuple[str, ...]
    ) -> tuple[int, dict[str, np.ndarray]]:
        """Verify and decode ``attrs`` of one page: ``(tuple count, columns)``."""
        _page_id, count, columns = self.page_codec.decode_columns(page, attrs)
        return count, columns

    def decode_unit(
        self, unit: bytes, attrs: tuple[str, ...]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Verify and decode ``attrs`` over adjacent pages read as one
        buffer: ``(tuple count per page, columns in file order)``.

        A unit with a corrupt page, or one the codec cannot flatten,
        raises without saying which page: the caller goes back to
        :meth:`decode_page`, page by page.
        """
        return self.page_codec.decode_unit(unit, attrs)

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
        return self.page_codec.values_per_page

    @property
    def is_variable(self) -> bool:
        return self.page_codec.codec.is_variable

    def decode_page(self, page: bytes, codes: bool = False) -> np.ndarray:
        """Every value of one page, decoded — or its ``codes``, undecoded."""
        if not codes:
            return self.page_codec.decode(page)[1]
        _page_id, count, payload, _state = self.page_codec.decode_raw(page)
        return self.page_codec.codec.unpack_codes(payload, count)

    def decode_unit(self, unit: bytes, codes: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`decode_page` over adjacent pages read as one buffer:
        ``(value count per page, values in file order)``.

        As :meth:`PagedTable.decode_unit`: a unit with a corrupt page,
        or one that cannot be flattened (RLE pages, a page other than
        the last not full), raises without saying which page.  A unit
        of one page has nothing to flatten: it is decoded as a page,
        whatever its codec, and its error is that page's.
        """
        if len(unit) == self.page_codec.page_size:
            values = self.decode_page(unit, codes)
            return np.array([len(values)]), values
        counts, bases, values = self.page_codec.decode_unit(unit)
        per_page = counts.tolist()
        if per_page[:-1] != [self.values_per_page] * (len(per_page) - 1):
            raise PageFormatError(f"unit is not dense: page counts {per_page}")
        if not codes:
            values = self.page_codec.codec.decode_codes(values, bases)
        return counts, values.reshape(-1)[: sum(per_page)]

    def gather_unit(
        self, unit: bytes, pages: np.ndarray, in_page: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value ``in_page[i]`` of the unit's page ``pages[i]``, for every
        ``i``: ``(value count per page, values)``.

        One fancy index into the unit's codes, then one decode of what
        it took — of whole pages first where the codec cannot do less.
        An index at or past its page's count raises: padding is never a
        value.  A unit of one page is gathered from as a page
        (:meth:`Codec.decode_positions`), whatever its codec.
        """
        codec = self.page_codec.codec
        if len(unit) == self.page_codec.page_size:
            _page_id, count, payload, state = self.page_codec.decode_raw(unit)
            return np.array([count]), codec.decode_positions(payload, count, state, in_page)[0]
        counts, bases, codes = self.page_codec.decode_unit(unit)
        if (in_page >= counts[pages]).any():
            raise CompressionError("position past the values of its page")
        if codec.decodes_whole_page:
            return counts, codec.decode_codes(codes, bases)[pages, in_page]
        return counts, codec.decode_codes(codes[pages, in_page, None], bases[pages])[:, 0]

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
    attr = schema.attribute(name)
    codec = build_codec(attr.spec, attr.attr_type)
    page_codec = ColumnPageCodec(codec, page_size)
    file = PagedFile(f"{schema.name}.{name}", page_size=page_size)
    return ColumnFile(name=name, file=file, page_codec=page_codec)
