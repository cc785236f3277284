"""Hybrid read path: overlay a write store's edits on base-table scans.

This is the glue between the write-optimized store and every read
architecture in the engine.  A :class:`HybridOverlay` is an immutable
snapshot of one table's pending edits, as one query sees them:

* a deleted-mask and prefix-count *shift* array over global positions,
  so base-scan output can be filtered and remapped vectorized (built
  once per version of the store and shared by its queries);
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
whichever executor ran (resolve -> execute -> overlay); with no pending
edits the resolver builds none (one ``has_changes`` check — the
candidate arm of the empty-delta overhead gate in
``benchmarks/check_tracing_overhead.py``).

Snapshot semantics: an overlay captures the store's state at build
time, so a query keeps its view even if writes land while a scheduled
query is in flight.  The delete mask and shift are the store's
per-version :meth:`~repro.storage.write_store.WriteOptimizedStore.
delete_snapshot`, read-only and shared with every other read of that
version; a later write makes new ones.  The delta rows are picked out
of the store's staged columns, read-only views that no later write
rewrites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.executor import QueryResult
from repro.engine.query import ScanQuery

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

    The store's delete snapshot is shared, not rebuilt; what is built
    here is the query's own: staged rows matched against its predicates
    and deleted-again ones dropped, so :meth:`HybridOverlay.apply` only
    concatenates precomputed arrays.
    """
    base_rows = store.base_rows
    deleted, shift = store.delete_snapshot()
    if store.total_rows > base_rows:
        staged, live = store.match_staged(query.predicates)
        if deleted is not None:
            live &= ~deleted[base_rows:]
        picked = np.flatnonzero(live)
        global_positions = base_rows + picked
        delta_positions = global_positions - shift[global_positions]
        delta_columns = {
            name: staged[name][picked] for name in query.select
        }
    else:
        delta_positions = np.zeros(0, dtype=np.int64)
        delta_columns = {}
    return HybridOverlay(
        deleted=deleted,
        shift=shift,
        delta_columns=delta_columns,
        delta_positions=delta_positions,
    )
