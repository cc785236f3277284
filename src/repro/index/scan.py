"""Index-scan operator: probe the index, fetch tuples by sorted RID.

Produces exactly the same blocks a table scanner would for the same
predicate, so the two access paths are interchangeable above the disk
layer — the property the paper's engine design insists on.
"""

from __future__ import annotations

import numpy as np

from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan_core import RunOnceScanner, decode_tuple_pages
from repro.engine.operators.scan_row import charge_row_page
from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.index.secondary import SecondaryIndex
from repro.storage.table import RowTable


class IndexScan(RunOnceScanner):
    """Fetch the tuples qualifying under one indexed predicate."""

    def __init__(
        self,
        context: ExecutionContext,
        table: RowTable,
        index: SecondaryIndex,
        predicate: Predicate,
        select: tuple[str, ...],
    ):
        super().__init__(context, table, select, (predicate,))
        if index.num_rows != table.num_rows:
            raise PlanError(
                f"index covers {index.num_rows} rows, table has {table.num_rows}"
            )
        self.index = index
        self.predicate = predicate

    def _compute(self):
        events = self.events
        table = self.table
        rids = self.index.lookup_predicate(self.predicate)
        # Probing the index and sorting the RID list.
        events.positions_processed += int(rids.size)

        per_page = table.page_codec.tuples_per_page
        page_ids = rids // per_page
        pages = np.unique(page_ids).tolist()
        # The touched pages go through the scan core's window reader, as
        # a row scan's do: checked, placed and span-checked, and under
        # the query's integrity policy and governance.
        pieces = self._guarded_units(
            table.file,
            pages,
            lambda at: table.row_span_of_page(pages[at]),
            lambda unit, _at, _run, verify: decode_tuple_pages(table, self.select, unit, verify),
        )
        blocks = []
        for at, _run, decoded in pieces:
            if decoded is None:
                continue
            counts, columns = decoded
            start = 0
            for page_id, count in zip(pages[at:], counts.tolist()):
                first_row = page_id * per_page
                page = {name: col[start : start + count] for name, col in columns.items()}
                start += count
                events.pages_touched += 1
                # A fetched page streams through the caches whole.
                charge_row_page(events, self.context.calibration, table.page_size)
                in_page = rids[page_ids == page_id] - first_row
                wanted = np.zeros(count, dtype=bool)
                wanted[in_page] = True
                blocks.append(self._project(page, wanted, in_page.size, first_row))
        return concat_blocks(blocks) if blocks else self._empty_block()
