"""One registered table: the owner of everything that changes it.

A :class:`TableEntry` holds a table's data, its materialized layouts,
its views and its write store, and is the only code that stages,
deletes, merges or re-materializes them;
:class:`~repro.database.Database` is a name → entry registry with
query routing on top.  It lives beside the facade, not under
``storage/``, because views need :mod:`repro.design.materialize`.
"""

from __future__ import annotations

import numpy as np

from repro.compression.advisor import CompressionAdvisor
from repro.data.generator import GeneratedTable
from repro.design.materialize import MaterializedView, ViewRouter, materialize_view
from repro.obs import recorder as flight
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.scrub import CorruptionReport, scrub_table
from repro.storage.table import Table
from repro.storage.write_store import WriteOptimizedStore


class TableEntry:
    """A table in every configured layout, its views and its write store."""

    def __init__(
        self,
        data: GeneratedTable,
        layouts: tuple[Layout, ...],
        page_size: int,
        compress: bool = False,
        sort_key: str | None = None,
        write_budget: int | None = None,
    ):
        if compress:
            attr_types = {a.name: a.attr_type for a in data.schema}
            specs = CompressionAdvisor().advise(attr_types, data.columns)
            data = data.with_schema(data.schema.with_codecs(specs))
        self.data = data
        self.layouts = layouts
        self.page_size = page_size
        self.tables: dict[Layout, Table] = {
            layout: load_table(data, layout, page_size=page_size)
            for layout in layouts
        }
        self.router = ViewRouter(self.tables[layouts[0]])
        #: Staged inserts + delete vector feeding the hybrid read path.
        self.store = WriteOptimizedStore(
            data.schema, sort_key=sort_key, memory_budget=write_budget
        )
        self.store.attach_base(data.num_rows)

    @property
    def name(self) -> str:
        return self.data.schema.name

    # --- views ------------------------------------------------------------

    def create_view(self, attributes, **definition) -> MaterializedView:
        """Materialize a vertical partition of the current data and route to it
        (``definition``: :func:`~repro.design.materialize.materialize_view`'s)."""
        layout = Layout.COLUMN if Layout.COLUMN in self.layouts else self.layouts[0]
        view = materialize_view(
            self.data, attributes, layout=layout, page_size=self.page_size, **definition
        )
        self.router.add_view(view)
        return view

    # --- writes -----------------------------------------------------------

    def insert_many(self, rows: list[tuple]) -> None:
        """Stage a batch, all or none (see ``WriteOptimizedStore.insert_many``)."""
        self.store.insert_many(rows)
        flight.record(
            "write.stage",
            table=self.name,
            rows=len(rows),
            staged=len(self.store),
        )

    def delete(self, positions, predicates=None) -> int:
        """Mark global ``positions`` deleted; returns how many were live.

        With ``predicates`` (possibly empty: every row) the staged rows
        matching them all go too — the facade's predicate delete probes
        the base with a read and hands the matched positions down.
        """
        store = self.store
        if predicates is not None:
            _, live = store.match_staged(predicates)
            positions = np.concatenate(
                [positions, store.base_rows + np.flatnonzero(live)]
            )
        newly = store.delete(positions)
        flight.record(
            "write.delete",
            table=self.name,
            newly=newly,
            deleted=store.deletes.count(),
        )
        return newly

    def merge_steps(self, label: str, verify: bool, blackbox: bool):
        """The in-memory merge as a step generator; returns the merged row count.

        Drained in one go by the facade's foreground merge, handed to
        the scheduler by its background merge (``blackbox=False``: the
        scheduler boxes a failed job).  Nothing runs before the first
        step, and the swap is one step: queries never see a half-merged
        entry, and a failure before it leaves entry and staging as found.
        """
        with self.store.merge_transaction(
            self.data.schema, self.data.columns, label, blackbox=blackbox
        ) as merge:
            yield
            tables = {}
            for layout in self.layouts:
                tables[layout] = load_table(
                    merge.data, layout, page_size=self.page_size, verify=verify
                )
                yield
            router = ViewRouter(tables[self.layouts[0]])
            for view in self.router.views:
                router.add_view(view.refreshed(merge.data))
            self.data, self.tables, self.router = merge.data, tables, router
        return merge.data.num_rows

    # --- introspection ----------------------------------------------------

    def board(self) -> dict:
        """Write-store state for the dashboard panel."""
        store = self.store
        return {
            "staged": len(store),
            "staged_bytes": store.staged_bytes,
            "deleted": store.deletes.count(),
            "base_rows": store.base_rows,
            "budget": store.memory_budget,
            "merging": store.merging,
        }

    def scrub(self) -> dict[str, CorruptionReport]:
        """Sweep every page of every layout and view, keyed ``TABLE:relation``."""
        reports = {
            f"{self.name}:{layout.value}": scrub_table(table)
            for layout, table in self.tables.items()
        }
        for view in self.router.views:
            reports[f"{self.name}:{view.name}"] = scrub_table(view.table)
        return reports
