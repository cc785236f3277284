"""Hybrid read path: overlay a write store's edits on base-table scans.

This is the glue between the write-optimized store and every read
architecture in the engine.  A :class:`HybridOverlay` is an immutable
snapshot of one table's pending edits, precomputed per query:

* a deleted-mask and prefix-count *shift* array over global positions,
  so base-scan output can be filtered and remapped vectorized;
* the staged rows already projected to the query's select list,
  filtered by its predicates, and positioned at rebuilt-table
  coordinates.

There is one mechanism, used by every execution path: the base plan
runs unchanged against the read store — serial, partitioned-parallel,
scheduled or riding a shared scan, none of whose plumbing knows about
deltas — and :meth:`HybridOverlay.apply` transforms the materialized
result once, at the plan boundary (one select then gather over
positions, plus an append).  The transformation is per-row and
order-preserving, so the output is byte-identical to scanning a table
rebuilt as ``base minus deletes, then staged inserts in insertion
order``.  The overlay is not a plan node: it charges no
:class:`~repro.cpusim.events.CostEvents` and has no span, so a dirty
query's modeled cost and EXPLAIN tree are those of its base plan.

``Database`` builds the overlay in its resolver and applies it after
whichever executor ran (resolve -> execute -> overlay).
:func:`run_scan_with_store` is the same pipeline for callers holding a
bare table and store, and the drop-in replacement for
:func:`~repro.engine.executor.run_scan`: with no pending edits it falls
through to the plain scan (one predicate check — this is the candidate
arm of the empty-delta overhead gate in
``benchmarks/check_tracing_overhead.py``).

Snapshot semantics: an overlay captures the store's state at build
time (the delete mask and staged columns are copied), so a query keeps
its view even if writes land while a scheduled query is in flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, run_scan
from repro.engine.plan import ColumnScannerKind
from repro.engine.query import ScanQuery
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.write_store import WriteOptimizedStore


class HybridOverlay:
    """One table's pending edits, snapshotted and query-projected."""

    __slots__ = ("deleted", "shift", "delta_columns", "delta_positions")

    def __init__(
        self,
        deleted: np.ndarray | None,
        shift: np.ndarray,
        delta_columns: dict[str, np.ndarray],
        delta_positions: np.ndarray,
    ):
        self.deleted = deleted
        self.shift = shift
        self.delta_columns = delta_columns
        self.delta_positions = delta_positions

    def apply(self, result: QueryResult) -> QueryResult:
        """Overlay a materialized base-scan result.

        Applied once to the collected output: drop deleted base rows,
        shift survivors to rebuilt-table positions, append the
        qualifying delta rows.
        """
        positions = result.positions
        columns = result.columns
        if self.deleted is not None and len(positions):
            keep = ~self.deleted[positions]
            if not keep.all():
                positions = positions[keep]
                columns = {name: col[keep] for name, col in columns.items()}
        remapped = positions.astype(np.int64, copy=True)
        if len(positions):
            remapped -= self.shift[positions]
        if len(self.delta_positions):
            remapped = np.concatenate([remapped, self.delta_positions])
            columns = {
                name: np.concatenate([col, self.delta_columns[name]])
                for name, col in columns.items()
            }
        return QueryResult(
            columns=columns,
            positions=remapped,
            events=result.events,
            corruption=result.corruption,
        )


def build_overlay(store: "WriteOptimizedStore", query: ScanQuery) -> HybridOverlay:
    """Snapshot a store's edits, projected through one query.

    Staged rows are filtered here — deleted-again staged rows dropped,
    the query's predicates evaluated vectorized on the staged columns —
    so :meth:`HybridOverlay.apply` only concatenates precomputed arrays.
    """
    base_rows = store.base_rows
    total_rows = store.total_rows
    deletes = store.deletes
    shift = deletes.cumulative()
    deleted = None if deletes.is_empty else deletes.mask()
    if total_rows > base_rows:
        staged, live = store.match_staged(query.predicates)
        if deleted is not None:
            live &= ~deleted[base_rows:total_rows]
        picked = np.flatnonzero(live)
        global_positions = base_rows + picked.astype(np.int64)
        delta_positions = global_positions - shift[global_positions]
        delta_columns = {
            name: staged[name][picked] for name in query.select
        }
    else:
        delta_positions = np.zeros(0, dtype=np.int64)
        delta_columns = {}
    # deleted is snapshot-stable: mask()/cumulative() already copied out
    # of the bitmap, and the delta columns are copies picked out of the
    # store's (read-only, per-version) staged columns.
    return HybridOverlay(
        deleted=deleted,
        shift=shift,
        delta_columns=delta_columns,
        delta_positions=delta_positions,
    )


def run_scan_with_store(
    table: Table,
    query: ScanQuery,
    store: "WriteOptimizedStore | None",
    context: ExecutionContext | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    salvage: bool = False,
) -> QueryResult:
    """Serial scan that sees the write store's pending edits, if any.

    The empty-delta fall-through is the whole fast path: one attribute
    load and one predicate check before handing off to the unchanged
    :func:`run_scan`, which the paired overhead gate holds under 5%.
    """
    if store is None or not store.has_changes:
        return run_scan(table, query, context, column_scanner, salvage)
    overlay = build_overlay(store, query)
    return overlay.apply(run_scan(table, query, context, column_scanner, salvage))
