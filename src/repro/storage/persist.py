"""Persisting tables to real files on disk.

The simulator never needs real files — sizes and access patterns are
enough — but a usable library should survive a process restart.  This
module serializes a loaded table (any layout) into a directory:

* ``meta.json`` — schema, per-column codec specs (including the
  dictionary values), layout, row count, page size, page directories,
  and a CRC32 of the metadata itself;
* one binary page file per storage file, byte-for-byte the same pages
  the in-memory :class:`~repro.storage.pagefile.PagedFile` holds.

``save_table`` / ``open_table`` round-trip every layout and codec.

Durability and integrity
------------------------

``save_table`` is crash-safe: everything is written into a hidden
sibling temp directory, fsynced, and atomically renamed into place, with
``meta.json`` written last — so a crash mid-save leaves either the old
table or no table, never a half-written one that parses.

On-disk format versions:

* **v1** (legacy): no page checksums, no metadata checksum.  Read
  transparently — each page's trailer is upgraded in memory
  (:func:`repro.storage.page.upgrade_page_v1`) so the rest of the
  system sees only checksummed v2 pages.  Note the fresh checksums
  attest to the bytes *as read*; v1 files carry no protection against
  corruption that happened before the upgrade.
* **v2** (current): every page trailer carries a CRC32, verified on a
  page's first read after the table is opened, and ``meta.json``
  carries ``meta_crc32`` over its own canonical JSON, verified on open.

``open_table`` by default is strict: torn writes (trailing partial
pages), truncated files, and metadata damage raise
:class:`~repro.errors.StorageError` /
:class:`~repro.errors.ChecksumError`.  Passing a
:class:`~repro.storage.scrub.CorruptionReport` as ``salvage`` instead
records the damage (with estimated rows lost) and returns a table over
the surviving pages.
"""

from __future__ import annotations

import base64
import json
import math
import os
import pathlib
import shutil
import zlib

import numpy as np

from repro.compression.base import CodecKind, CodecSpec
from repro.errors import ChecksumError, StorageError
from repro.storage.layout import Layout
from repro.storage.page import upgrade_page_v1
from repro.storage.pagefile import PagedFile
from repro.storage.retry import RetryPolicy, retry_io
from repro.storage.scrub import CorruptionReport
from repro.storage.table import (
    ColumnFile,
    ColumnTable,
    PaxTable,
    RowTable,
    Table,
    build_column_file,
)
from repro.types.datatypes import AttributeType, FixedTextType, IntType
from repro.types.schema import Attribute, TableSchema

_META_NAME = "meta.json"
_META_CRC_KEY = "meta_crc32"
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


# --- schema (de)serialization ------------------------------------------------


def _type_to_json(attr_type: AttributeType) -> dict:
    if isinstance(attr_type, IntType):
        return {"kind": "int"}
    if isinstance(attr_type, FixedTextType):
        return {"kind": "text", "width": attr_type.width}
    raise StorageError(f"unknown attribute type: {attr_type!r}")


def _type_from_json(payload: dict) -> AttributeType:
    if payload["kind"] == "int":
        return IntType()
    if payload["kind"] == "text":
        return FixedTextType(payload["width"])
    raise StorageError(f"unknown attribute type in metadata: {payload}")


def _dictionary_to_json(dictionary: tuple) -> list:
    out = []
    for value in dictionary:
        if isinstance(value, (bytes, np.bytes_)):
            out.append({"b64": base64.b64encode(bytes(value)).decode("ascii")})
        else:
            out.append({"int": int(value)})
    return out


def _dictionary_from_json(payload: list) -> tuple:
    out = []
    for entry in payload:
        if "b64" in entry:
            out.append(base64.b64decode(entry["b64"]))
        else:
            out.append(int(entry["int"]))
    return tuple(out)


def _spec_to_json(spec: CodecSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "bits": spec.bits,
        "zigzag": spec.zigzag,
        "run_bits": spec.run_bits,
        "dictionary": _dictionary_to_json(spec.dictionary),
    }


def _spec_from_json(payload: dict) -> CodecSpec:
    return CodecSpec(
        kind=CodecKind(payload["kind"]),
        bits=payload["bits"],
        zigzag=payload["zigzag"],
        run_bits=payload["run_bits"],
        dictionary=_dictionary_from_json(payload["dictionary"]),
    )


def _schema_to_json(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "attributes": [
            {
                "name": attr.name,
                "type": _type_to_json(attr.attr_type),
                "codec": (
                    _spec_to_json(attr.codec_spec)
                    if attr.codec_spec is not None
                    else None
                ),
            }
            for attr in schema
        ],
    }


def _schema_from_json(payload: dict) -> TableSchema:
    attributes = tuple(
        Attribute(
            name=entry["name"],
            attr_type=_type_from_json(entry["type"]),
            codec_spec=(
                _spec_from_json(entry["codec"]) if entry["codec"] else None
            ),
        )
        for entry in payload["attributes"]
    )
    return TableSchema(name=payload["name"], attributes=attributes)


def _meta_checksum(meta: dict) -> int:
    """CRC32 over the canonical JSON of ``meta`` minus the CRC key."""
    core = {key: value for key, value in meta.items() if key != _META_CRC_KEY}
    return zlib.crc32(json.dumps(core, sort_keys=True).encode("utf-8"))


# --- durable file writes ---------------------------------------------------------


def _write_file_durably(path: pathlib.Path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(path: pathlib.Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _write_paged_file(file: PagedFile, path: pathlib.Path) -> None:
    _write_file_durably(path, b"".join(file.iter_pages()))


def _read_paged_file(
    path: pathlib.Path,
    name: str,
    page_size: int,
    *,
    version: int = _FORMAT_VERSION,
    salvage: CorruptionReport | None = None,
    retry_policy: RetryPolicy | None = None,
) -> PagedFile:
    try:
        data = retry_io(path.read_bytes, retry_policy)
    except FileNotFoundError:
        if salvage is None:
            raise StorageError(f"missing page file {path}") from None
        salvage.record(name, -1, 0, f"page file missing: {path.name}")
        return PagedFile(name, page_size=page_size, retry_policy=retry_policy)
    extra = len(data) % page_size
    if extra:
        if salvage is None:
            raise StorageError(
                f"{path} has {len(data)} bytes, not a multiple of page size "
                f"{page_size}: trailing partial page (torn write or truncation)"
            )
        # A torn write left a partial tail page; keep the whole pages.
        # The missing rows are accounted by the page-count check below.
        data = data[: len(data) - extra]
    if version == 1:
        data = b"".join(
            upgrade_page_v1(data[start : start + page_size])
            for start in range(0, len(data), page_size)
        )
    return PagedFile.from_bytes(name, data, page_size, retry_policy=retry_policy)


def _check_page_count(
    file: PagedFile,
    expected: int,
    span_of,
    salvage: CorruptionReport | None,
) -> None:
    """Compare a file's page count against what the metadata implies."""
    actual = file.num_pages
    if actual > expected:
        raise StorageError(
            f"{file.name!r} has {actual} pages but metadata implies {expected}: "
            f"metadata and pages disagree"
        )
    if actual == expected:
        return
    if salvage is None:
        raise StorageError(
            f"{file.name!r} has {actual} pages, expected {expected}: "
            f"file truncated or torn"
        )
    for page_id in range(actual, expected):
        salvage.record(
            file.name, page_id, span_of(page_id), "page missing (truncated/torn file)"
        )


# --- public API -----------------------------------------------------------------


def save_table(
    table: Table, directory: str | pathlib.Path, crash_hook=None
) -> pathlib.Path:
    """Persist a loaded table into ``directory``, atomically.

    The table is written into a hidden temp directory next to the
    target, fsynced, and renamed into place — ``meta.json`` last, so an
    interrupted save can never produce a directory that opens.
    Overwriting an existing table swaps the directories; the old table
    remains openable until the swap.

    ``crash_hook``, when given, is called with a fault-point name after
    each durability step (``staging.created``, ``pages.written``,
    ``meta.written``, ``staging.fsynced``, ``table.renamed``); a hook
    that raises simulates a crash at exactly that point, which the
    merge crash matrix uses to prove old-or-new atomicity.
    """
    directory = pathlib.Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = directory.parent / f".{directory.name}.saving"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    if crash_hook is not None:
        crash_hook("staging.created")
    meta: dict = {
        "format_version": _FORMAT_VERSION,
        "layout": table.layout.value,
        "num_rows": table.num_rows,
        "page_size": table.page_size,
        "schema": _schema_to_json(table.schema),
    }
    if isinstance(table, (RowTable, PaxTable)):
        _write_paged_file(table.file, staging / "table.pages")
    elif isinstance(table, ColumnTable):
        columns_meta = {}
        for name, column_file in table.column_files.items():
            _write_paged_file(column_file.file, staging / f"{name}.pages")
            columns_meta[name] = {
                "first_rows": (
                    column_file.first_rows.tolist()
                    if column_file.first_rows is not None
                    else None
                ),
                "effective_bits": column_file.effective_bits,
            }
        meta["columns"] = columns_meta
    else:
        raise StorageError(f"unsupported table type: {type(table).__name__}")
    if crash_hook is not None:
        crash_hook("pages.written")
    meta[_META_CRC_KEY] = _meta_checksum(meta)
    _write_file_durably(
        staging / _META_NAME, json.dumps(meta, indent=2).encode("utf-8")
    )
    if crash_hook is not None:
        crash_hook("meta.written")
    _fsync_directory(staging)
    if crash_hook is not None:
        crash_hook("staging.fsynced")
    if directory.exists():
        retired = directory.parent / f".{directory.name}.old"
        if retired.exists():
            shutil.rmtree(retired)
        directory.rename(retired)
        staging.rename(directory)
        shutil.rmtree(retired)
    else:
        staging.rename(directory)
    _fsync_directory(directory.parent)
    if crash_hook is not None:
        crash_hook("table.renamed")
    return directory


def _load_meta(directory: pathlib.Path) -> dict:
    meta_path = directory / _META_NAME
    if not meta_path.exists():
        raise StorageError(f"no {_META_NAME} in {directory}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"{meta_path} is corrupt or half-written: {exc}"
        ) from exc
    version = meta.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise StorageError(f"unsupported on-disk format version: {version}")
    if version >= 2:
        stored = meta.get(_META_CRC_KEY)
        if stored is None:
            raise ChecksumError(f"{meta_path} is v{version} but has no checksum")
        actual = _meta_checksum(meta)
        if stored != actual:
            raise ChecksumError(
                f"{meta_path} checksum mismatch: stored {stored:#010x}, "
                f"computed {actual:#010x}"
            )
    return meta


def open_table(
    directory: str | pathlib.Path,
    salvage: CorruptionReport | None = None,
    retry_policy: RetryPolicy | None = None,
) -> Table:
    """Load a table previously written by :func:`save_table`.

    Strict by default: damaged files raise.  With ``salvage``, torn and
    truncated page files are tolerated — surviving whole pages load, and
    each missing page is recorded in the report with the rows it
    covered.  ``retry_policy`` governs transient-read backoff for the
    initial file reads and all later page reads.
    """
    directory = pathlib.Path(directory)
    meta = _load_meta(directory)
    version = meta["format_version"]
    schema = _schema_from_json(meta["schema"])
    layout = Layout(meta["layout"])
    page_size = meta["page_size"]
    num_rows = meta["num_rows"]

    if layout in (Layout.ROW, Layout.PAX):
        file = _read_paged_file(
            directory / "table.pages",
            schema.name,
            page_size,
            version=version,
            salvage=salvage,
            retry_policy=retry_policy,
        )
        table_cls = RowTable if layout is Layout.ROW else PaxTable
        table = table_cls(schema, file, num_rows, page_size=page_size)
        _check_page_count(
            file, table.pages_for_rows(num_rows), table.row_span_of_page, salvage
        )
        return table

    column_files: dict[str, ColumnFile] = {}
    for attr in schema:
        column_file = build_column_file(schema, attr.name, page_size)
        column_file.file = _read_paged_file(
            directory / f"{attr.name}.pages",
            f"{schema.name}.{attr.name}",
            page_size,
            version=version,
            salvage=salvage,
            retry_policy=retry_policy,
        )
        column_meta = meta["columns"][attr.name]
        if column_meta["first_rows"] is not None:
            column_file.first_rows = np.asarray(
                column_meta["first_rows"], dtype=np.int64
            )
        column_file.effective_bits = column_meta["effective_bits"]
        expected = (
            len(column_file.first_rows)
            if column_file.first_rows is not None
            else math.ceil(num_rows / column_file.values_per_page)
        )
        _check_page_count(
            column_file.file,
            expected,
            lambda page_id, cf=column_file: cf.row_span_of_page(page_id, num_rows),
            salvage,
        )
        column_files[attr.name] = column_file
    return ColumnTable(schema, column_files, num_rows, page_size=page_size)
