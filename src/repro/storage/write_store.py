"""Write-optimized staging store and crash-safe merge (Figure 1, left).

The paper assumes updates land in a *write-optimized store* and are
periodically moved in bulk into the read-optimized store (the design
C-Store uses).  The paper itself only measures the read store; this
component makes the library usable end to end:

* inserts accumulate in memory as columns, one growable numpy buffer
  per attribute, each batch converted and type-checked once
  (optionally under a byte budget, enforced with the same
  :class:`~repro.errors.MemoryBudgetExceeded` the query governor uses);
  a read sees read-only views of the filled prefix, which no later
  write rewrites;
* deletes are *marked* in a :class:`~repro.storage.delete_vector.
  DeleteVector` over global row positions — both base-table rows and
  staged rows are addressable, so an insert can be deleted again
  before it ever reaches disk;
* reads see the edits through the hybrid overlay layer
  (:mod:`repro.engine.hybrid`) without touching the read store; the
  delete vector's mask and prefix counts are built once per version of
  the store (:meth:`WriteOptimizedStore.delete_snapshot`) and shared
  by every read of it;
* a merge rebuilds the read store with deletes reclaimed and staged
  tuples appended, preserving the table's physical layout and
  refreshing each column's codec parameters (a staged value may fall
  outside the old dictionary or packed width); its protocol is written
  once, in :meth:`WriteOptimizedStore.merge_transaction`, and the doors
  (:meth:`~WriteOptimizedStore.merge_into`, :func:`merge_into_directory`,
  the facade's two merges) differ only in how they install the result;
* :func:`merge_into_directory` installs it durably and atomically:
  the new table is saved into a fresh versioned directory (temp files,
  fsync, rename — the PR-1 machinery) and a ``CURRENT`` manifest is
  flipped durably, so a crash at *any* fault point leaves exactly the
  old or the new snapshot on disk, never a mixture.

``tests/test_write_path.py`` pins the hybrid read equivalence and the
merge ordering; ``tests/test_merge_crash_matrix.py`` walks
:data:`MERGE_FAULT_POINTS` and proves old-or-new atomicity.
"""

from __future__ import annotations

import pathlib
import shutil
import time
from contextlib import contextmanager

import numpy as np

from repro.compression.registry import build_codec_for_values
from repro.data.generator import GeneratedTable
from repro.errors import (
    CompressionError,
    MemoryBudgetExceeded,
    SchemaError,
    StorageError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.storage.delete_vector import DeleteVector
from repro.storage.loader import BulkLoader
from repro.storage.persist import (
    _fsync_directory,
    _write_file_durably,
    open_table,
    save_table,
)
from repro.storage.table import Table
from repro.types.schema import TableSchema

#: Every injection point a merge-to-disk passes through, in order.  The
#: first five live inside :func:`~repro.storage.persist.save_table`
#: (the versioned snapshot write); the last is the durable ``CURRENT``
#: manifest flip.  A crash at any of them must leave old-or-new state.
MERGE_FAULT_POINTS = (
    "staging.created",
    "pages.written",
    "meta.written",
    "staging.fsynced",
    "table.renamed",
    "current.written",
)

_CURRENT_NAME = "CURRENT"


class _Merge:
    """What the body of ``with store.merge_transaction()`` sees of its merge."""

    #: The rebuilt table's data (:meth:`WriteOptimizedStore.merged_data`).
    data: GeneratedTable
    #: Set by the body once its commit point has passed.
    durable = False


class WriteOptimizedStore:
    """In-memory staging area (inserts + delete vector) for one table."""

    def __init__(
        self,
        schema: TableSchema,
        sort_key: str | None = None,
        memory_budget: int | None = None,
    ):
        self.schema = schema
        if sort_key is not None:
            schema.attribute(sort_key)  # validates
        self.sort_key = sort_key
        if memory_budget is not None and memory_budget <= 0:
            raise StorageError(f"memory budget must be positive: {memory_budget}")
        self.memory_budget = memory_budget
        self._row_bytes = sum(attr.width for attr in schema)
        #: One buffer per attribute; rows ``[0, _length)`` are staged,
        #: the rest is capacity.  A row once staged is never rewritten.
        self._buffers = self._empty_buffers()
        self._length = 0
        #: What a read of the current version sees, built by its first
        #: read: the staged columns (until the next insert or reset) and
        #: the delete snapshot (until the next insert, delete or reset).
        self._views: dict[str, np.ndarray] | None = None
        self._snapshot: tuple[np.ndarray | None, np.ndarray] | None = None
        self._base_rows = 0
        self._deletes = DeleteVector(0)
        self._merging = False

    def _empty_buffers(self) -> dict[str, np.ndarray]:
        return {
            attr.name: np.empty(0, dtype=attr.attr_type.numpy_dtype())
            for attr in self.schema
        }

    def __len__(self) -> int:
        return self._length

    @property
    def is_empty(self) -> bool:
        return not self._length

    # --- shape ------------------------------------------------------------

    @property
    def base_rows(self) -> int:
        """Rows in the read-store snapshot this store overlays."""
        return self._base_rows

    @property
    def total_rows(self) -> int:
        """Addressable global positions: base rows plus staged rows."""
        return self._base_rows + self._length

    @property
    def deletes(self) -> DeleteVector:
        """The delete vector over global positions ``[0, total_rows)``."""
        return self._deletes

    @property
    def staged_bytes(self) -> int:
        """Uncompressed bytes held by the staged rows (not the buffers'
        capacity: what the byte budget counts)."""
        return self._length * self._row_bytes

    @property
    def has_changes(self) -> bool:
        """Whether a read must overlay this store (staged or deleted rows)."""
        return bool(self._length) or not self._deletes.is_empty

    def attach_base(self, num_rows: int) -> None:
        """Bind the store to a read-store snapshot of ``num_rows`` rows.

        Resets position accounting: the delete vector starts clean over
        the new base (staged rows, if any, shift to follow it).
        """
        if self._length:
            raise StorageError(
                "cannot re-attach a base under staged rows; merge or clear first"
            )
        self._base_rows = int(num_rows)
        self._deletes = DeleteVector(self.total_rows)
        self._snapshot = None

    def reset(self, base_rows: int) -> None:
        """Post-merge state: nothing staged, nothing deleted, new base.

        Staging starts over in fresh buffers, so the columns earlier
        reads were handed keep their rows.
        """
        obs_metrics.WRITE_STAGED_BYTES.dec(self.staged_bytes)
        self._buffers = self._empty_buffers()
        self._length = 0
        self._base_rows = int(base_rows)
        self._deletes = DeleteVector(base_rows)
        self._views = self._snapshot = None

    # --- merge freeze -----------------------------------------------------

    def begin_merge(self) -> None:
        """Freeze writes while a merge snapshot is being rebuilt."""
        if self._merging:
            raise StorageError("a merge is already in flight for this store")
        self._merging = True

    def end_merge(self) -> None:
        self._merging = False

    @property
    def merging(self) -> bool:
        return self._merging

    def _check_writable(self, what: str) -> None:
        if self._merging:
            raise StorageError(
                f"cannot {what} while a merge is in flight; "
                "wait for it to commit or abort"
            )

    # --- writes -----------------------------------------------------------

    def insert(self, row: tuple) -> None:
        """Stage one tuple (in schema attribute order)."""
        self.insert_many([row])

    def insert_many(self, rows: list[tuple]) -> None:
        """Stage a batch of tuples, all or none: arity, every attribute's
        type and range, and the byte budget are checked for the whole
        batch before any row is staged."""
        self._check_writable("insert")
        rows = [tuple(row) for row in rows]
        arity = len(self.schema)
        wrong = set(map(len, rows)) - {arity}
        if wrong:
            raise SchemaError(
                f"tuple of {min(wrong)} values for {arity}-attribute "
                f"table {self.schema.name!r}"
            )
        batch_bytes = len(rows) * self._row_bytes
        if (
            self.memory_budget is not None
            and self.staged_bytes + batch_bytes > self.memory_budget
        ):
            raise MemoryBudgetExceeded(
                f"write store for {self.schema.name!r} at "
                f"{self.staged_bytes} bytes; inserting {batch_bytes} more "
                f"exceeds the {self.memory_budget}-byte budget (merge to drain)"
            )
        if not rows:
            return
        columns = self._batch_columns(rows)
        start, end = self._length, self._length + len(rows)
        for name, column in columns.items():
            buffer = self._buffers[name]
            if end > len(buffer):
                # Amortized doubling into a new buffer: views of the old
                # one keep the rows they were handed.
                grown = np.empty(max(end, 2 * len(buffer)), dtype=buffer.dtype)
                grown[:start] = buffer[:start]
                self._buffers[name] = buffer = grown
            buffer[start:end] = column
        self._length = end
        self._views = self._snapshot = None
        self._deletes.grow(self.total_rows)
        # A level: every staged byte enters here and leaves in reset().
        obs_metrics.WRITE_STAGED_BYTES.inc(batch_bytes)

    def _batch_columns(self, rows: list[tuple]) -> dict[str, np.ndarray]:
        """The batch as one array per attribute, each converted and
        checked (:meth:`~repro.types.datatypes.AttributeType.validate`)
        once; a value its attribute cannot store raises
        :class:`SchemaError` naming the attribute."""
        columns = {}
        for attr, values in zip(self.schema, zip(*rows)):
            attr_type = attr.attr_type
            try:
                # Text is inferred to its longest value, so validate
                # sees an over-long one before the buffer would cut it.
                dtype = np.int64 if attr_type.is_integer else np.bytes_
                column = np.asarray(values, dtype=dtype)
                attr_type.validate(column)
            except (SchemaError, TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(
                    f"cannot stage {self.schema.name}.{attr.name}: {exc}"
                ) from None
            columns[attr.name] = column
        return columns

    def delete(self, positions) -> int:
        """Mark global positions deleted; returns how many were live.

        Positions address the *hybrid* table: ``[0, base_rows)`` is the
        base snapshot, ``[base_rows, total_rows)`` the staged rows in
        insertion order.  Deleting is idempotent.
        """
        self._check_writable("delete")
        newly = self._deletes.set_many(positions)
        if newly:
            self._snapshot = None
        return newly

    # --- reads ------------------------------------------------------------

    def staged_columns(self) -> dict[str, np.ndarray]:
        """The staged rows as columns (empty dict when nothing staged).

        Read-only views of the staged prefix of each buffer, made once
        per insert and shared by every read until the next: the arrays
        are read-only and no later write changes them, the dict is the
        caller's.
        """
        if self._views is None:
            self._views = {}
            if self._length:
                for name, buffer in self._buffers.items():
                    view = buffer[: self._length]
                    view.flags.writeable = False
                    self._views[name] = view
        return dict(self._views)

    def delete_snapshot(self) -> tuple[np.ndarray | None, np.ndarray]:
        """:meth:`DeleteVector.snapshot` of the current version, built on
        its first read and shared by every read until the next insert,
        delete or reset (the hybrid overlay's and :meth:`merged_columns`'s
        one source)."""
        if self._snapshot is None:
            self._snapshot = self._deletes.snapshot()
        return self._snapshot

    def match_staged(self, predicates) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """The staged columns, and which staged rows pass every predicate.

        The one staged-row matcher, under the hybrid overlay and the
        predicate delete; the delete vector is the caller's business.
        """
        staged = self.staged_columns()
        live = np.ones(self._length, dtype=bool)
        if staged:  # nothing staged: no columns to index
            for predicate in predicates:
                live &= predicate.evaluate(staged[predicate.attr])
        return staged, live

    def merged_columns(self, existing: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Live rows of the rebuilt table: base minus deletes, then staged.

        ``existing`` must hold the base snapshot's columns (length
        ``base_rows``).  No sort is applied — this is the order the
        hybrid read path presents, and the order :meth:`rebuild` starts
        from before any sort-key reclustering.
        """
        for name, column in existing.items():
            if len(column) != self._base_rows:
                raise StorageError(
                    f"base column {name!r} has {len(column)} rows; store is "
                    f"attached to a {self._base_rows}-row base"
                )
        staged = self.staged_columns()
        names = self.schema.attribute_names
        if staged:
            merged = {
                name: np.concatenate([existing[name], staged[name]])
                for name in names
            }
        else:
            merged = {name: existing[name] for name in names}
        deleted, _ = self.delete_snapshot()
        if deleted is not None:
            live = np.flatnonzero(~deleted)  # one index gather per column
            merged = {name: column[live] for name, column in merged.items()}
        return merged

    # --- merge ------------------------------------------------------------

    def _refreshed_schema(
        self, schema: TableSchema, columns: dict[str, np.ndarray]
    ) -> TableSchema:
        """Re-fit every declared codec to the merged data.

        Staged values may fall outside the base columns' dictionaries
        or packed widths; each codec keeps its *kind* but re-derives
        its parameters.  A kind the merged data can no longer support
        (e.g. a dictionary overflowing its code space) downgrades to
        identity rather than failing the merge.
        """
        specs = {}
        for attr in schema:
            if attr.codec_spec is None:
                continue
            try:
                specs[attr.name] = build_codec_for_values(
                    attr.codec_spec.kind, attr.attr_type, columns[attr.name]
                ).spec
            except CompressionError:
                from repro.compression.identity import IdentityCodec

                specs[attr.name] = IdentityCodec.spec_for_type(attr.attr_type)
        if not specs:
            return schema
        return schema.with_codecs(specs)

    def merged_data(
        self, schema: TableSchema, base_columns: dict[str, np.ndarray], governance=None
    ) -> GeneratedTable:
        """The rebuilt table's data: edits applied, reclustered, re-coded.

        Base-minus-deletes plus the staged tuples appended in insertion
        order; with a ``sort_key`` the combined data is re-clustered on
        it with a *stable* sort, so rows with duplicate keys keep that
        order.  Codec parameters are refreshed for the merged data.
        ``governance`` (a :class:`~repro.engine.governance.QueryContext`)
        is checkpointed at each phase so a merge honors deadlines and
        cancellation.
        """
        if schema.attribute_names != self.schema.attribute_names:
            raise StorageError(
                f"cannot merge {self.schema.name!r} staging into "
                f"{schema.name!r}: schemas differ"
            )
        if governance is not None:
            governance.check("merge.read_base")
        merged = self.merged_columns(base_columns)
        if governance is not None:
            governance.check("merge.recluster")
        if self.sort_key is not None:
            # Stable, so duplicate-key rows keep insertion order (the
            # regression pinned by test_merge_stable_sort_keeps_ties).
            order = np.argsort(merged[self.sort_key], kind="stable")
            merged = {name: col[order] for name, col in merged.items()}
        return GeneratedTable(
            schema=self._refreshed_schema(schema, merged), columns=merged
        )

    def rebuild(
        self,
        table: Table,
        loader: BulkLoader | None = None,
        verify: bool = False,
        governance=None,
    ) -> Table:
        """Build the merged read store; staging is left untouched.

        Layout and page size follow ``table``.  With ``verify=True``
        the rebuilt table is integrity-swept before it is returned, so
        a merge can never install corrupt pages.
        """
        data = self.merged_data(table.schema, table.columns_dict(), governance)
        return _load_like(table, data, loader, verify, governance)

    @contextmanager
    def merge_transaction(
        self,
        schema: TableSchema,
        base_columns: dict[str, np.ndarray],
        label: str,
        governance=None,
        blackbox: bool = True,
        **detail,
    ):
        """The one merge protocol; the ``with`` body installs ``merge.data``.

        Freeze first (a refused merge emits nothing) → count what is
        drained → ``write.merge.begin`` → :meth:`merged_data` → the
        body → unfreeze and *commit* (reset onto the new base, the
        ``repro_write_merge*`` series, ``write.merge.commit``) or *abort*
        (staging kept for a retry, ``write.merge.abort``, the abort
        counter, one black box; re-raised).  A body that fails after its
        commit point — the durable ``CURRENT`` flip — has set
        ``merge.durable``: the store then resets, the merge must not be
        retried.  ``blackbox=False``: the failure lands on a handle
        whose owner (the scheduler) dumps the box.  ``detail`` rides on
        all three events.
        """
        self.begin_merge()
        started = time.perf_counter()
        staged = self._length
        reclaimed = self._deletes.count()
        detail["table"] = schema.name
        flight.record(
            "write.merge.begin", label, staged=staged, deleted=reclaimed, **detail
        )
        merge = _Merge()
        try:
            merge.data = self.merged_data(schema, base_columns, governance)
            yield merge
        except BaseException as exc:
            self.end_merge()
            if merge.durable:
                self.reset(merge.data.num_rows)
            flight.record(
                "write.merge.abort", label, error=type(exc).__name__, **detail
            )
            if blackbox:
                flight.blackbox(label, error=exc)
            raise
        self.end_merge()
        self.reset(merge.data.num_rows)
        flight.record(
            "write.merge.commit",
            label,
            rows=merge.data.num_rows,
            staged=staged,
            reclaimed=reclaimed,
            seconds=time.perf_counter() - started,
            **detail,
        )

    def merge_into(
        self,
        table: Table,
        loader: BulkLoader | None = None,
        verify: bool = False,
        governance=None,
    ) -> Table:
        """Rebuild the read store with the staged edits merged in.

        Returns a new table of the same layout; the staging area and
        delete vector are cleared only on success.
        """
        label = f"merge {table.schema.name}"
        with self.merge_transaction(
            table.schema, table.columns_dict(), label, governance
        ) as merge:
            return _load_like(table, merge.data, loader, verify, governance)


def _load_like(
    table: Table, data: GeneratedTable, loader, verify: bool, governance
) -> Table:
    """Load merged ``data`` in ``table``'s layout and page size."""
    loader = loader or BulkLoader(page_size=table.page_size, verify=verify)
    if governance is not None:
        governance.check("merge.load")
    return loader.load(data, table.layout)


# --- durable versioned merge (crash-safe manifest flip) --------------------


def read_current_version(root: str | pathlib.Path) -> str | None:
    """The version directory name ``CURRENT`` points at, or ``None``."""
    path = pathlib.Path(root) / _CURRENT_NAME
    if not path.exists():
        return None
    name = path.read_text(encoding="utf-8").strip()
    if not name or "/" in name or name.startswith("."):
        raise StorageError(f"corrupt CURRENT manifest in {root}: {name!r}")
    return name


def _flip_current(root: pathlib.Path, name: str) -> None:
    """Durably point ``CURRENT`` at a version directory (atomic rename)."""
    tmp = root / f".{_CURRENT_NAME}.tmp"
    _write_file_durably(tmp, (name + "\n").encode("utf-8"))
    tmp.rename(root / _CURRENT_NAME)
    _fsync_directory(root)


def open_current(
    root: str | pathlib.Path, salvage=None, retry_policy=None
) -> Table:
    """Open the table the ``CURRENT`` manifest points at."""
    root = pathlib.Path(root)
    name = read_current_version(root)
    if name is None:
        raise StorageError(f"no {_CURRENT_NAME} manifest in {root}")
    target = root / name
    if not target.exists():
        raise StorageError(
            f"{_CURRENT_NAME} points at missing version {name!r} in {root}"
        )
    return open_table(target, salvage=salvage, retry_policy=retry_policy)


def merge_into_directory(
    store: WriteOptimizedStore,
    table: Table,
    root: str | pathlib.Path,
    *,
    loader: BulkLoader | None = None,
    verify: bool = False,
    crash_hook=None,
    governance=None,
) -> tuple[Table, pathlib.Path]:
    """Crash-safe merge: rebuild, save a new version, flip ``CURRENT``.

    Layout on disk::

        root/
          CURRENT      <- "v0002\\n", flipped durably via tmp+rename
          v0002/       <- a save_table directory (pages + meta.json)

    The new snapshot is written into the *next* version directory with
    :func:`~repro.storage.persist.save_table` (temp dir, fsync, rename,
    meta last), then ``CURRENT`` is flipped.  Readers resolve through
    :func:`open_current`, so until the flip they see the old version —
    a crash at any point in :data:`MERGE_FAULT_POINTS` (exercise it via
    ``crash_hook``) leaves exactly old-or-new, never a mixture.

    On abort the staging area is untouched (the merge can be retried)
    and, when the flight recorder is on, exactly one black box is
    dumped for the failure.  On success the store resets to the new
    base and superseded version directories are retired.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    current = read_current_version(root)
    next_index = int(current[1:]) + 1 if current else 1
    version = f"v{next_index:04d}"
    label = f"merge {table.schema.name} -> {version}"
    with store.merge_transaction(
        table.schema, table.columns_dict(), label, governance, version=version
    ) as merge:
        new_table = _load_like(table, merge.data, loader, verify, governance)
        target = root / version
        if target.exists():
            shutil.rmtree(target)  # leftover from a crashed attempt
        save_table(new_table, target, crash_hook=crash_hook)
        _flip_current(root, version)
        # The manifest flip is the commit point: the merge IS durable,
        # so a surviving process must not retry it — a failure from
        # here on resets the in-memory store onto the new on-disk base.
        merge.durable = True
        if crash_hook is not None:
            crash_hook("current.written")
    for child in root.iterdir():
        if child.is_dir() and child.name != version and not child.name.startswith("."):
            shutil.rmtree(child, ignore_errors=True)
    return new_table, root / version
