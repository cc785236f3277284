"""Read-optimized disk storage: dense-packed pages and paged files.

Implements the Section 2.2.1 design: no slotted pages — a page is an
array of values (whole tuples for row storage, single-attribute values
for column storage) with an entry count at the head and page info (page
id, compression state) in a fixed-offset trailer.  Pages are stored
adjacently in a file; a column table uses one file per column.

Every page trailer carries a CRC32 checksum, verified on every decode
(:mod:`repro.storage.page`); transient read faults are retried with
bounded backoff (:mod:`repro.storage.retry`); seeded fault injection
lives in :mod:`repro.storage.faults` and integrity sweeps in
:mod:`repro.storage.scrub`.
"""

from repro.storage.faults import FaultPlan, FaultyPagedFile
from repro.storage.layout import Layout
from repro.storage.loader import BulkLoader, load_table
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_BYTES,
    PAGE_TRAILER_BYTES,
    ColumnPageCodec,
    RowPageCodec,
    checksum_verification_enabled,
    page_checksum,
    page_payload_bytes,
    set_checksum_verification,
)
from repro.storage.pagefile import PagedFile
from repro.storage.persist import open_table, save_table
from repro.storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_io
from repro.storage.rowz import CompressedRowPageCodec, schema_is_compressed
from repro.storage.pax import PaxPageCodec
from repro.storage.scrub import (
    CorruptionReport,
    PageFault,
    scrub_directory,
    scrub_table,
    verify_table,
)
from repro.storage.table import (
    ColumnFile,
    ColumnTable,
    PagedTable,
    PaxTable,
    RowTable,
    Table,
    make_row_page_codec,
)
from repro.storage.write_store import WriteOptimizedStore

__all__ = [
    "CorruptionReport",
    "DEFAULT_RETRY_POLICY",
    "FaultPlan",
    "FaultyPagedFile",
    "PageFault",
    "RetryPolicy",
    "checksum_verification_enabled",
    "page_checksum",
    "retry_io",
    "scrub_directory",
    "scrub_table",
    "set_checksum_verification",
    "verify_table",
    "CompressedRowPageCodec",
    "schema_is_compressed",
    "make_row_page_codec",
    "PagedTable",
    "PaxTable",
    "PaxPageCodec",
    "Layout",
    "DEFAULT_PAGE_SIZE",
    "PAGE_HEADER_BYTES",
    "PAGE_TRAILER_BYTES",
    "page_payload_bytes",
    "RowPageCodec",
    "ColumnPageCodec",
    "PagedFile",
    "save_table",
    "open_table",
    "Table",
    "RowTable",
    "ColumnTable",
    "ColumnFile",
    "BulkLoader",
    "load_table",
    "WriteOptimizedStore",
]
