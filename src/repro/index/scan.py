"""Index-scan operator: probe the index, fetch tuples by sorted RID.

Produces exactly the same blocks a table scanner would for the same
predicate, so the two access paths are interchangeable above the disk
layer — the property the paper's engine design insists on.
"""

from __future__ import annotations

import numpy as np

from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan_core import RunOnceScanner
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
        blocks = []
        for page_id in np.unique(page_ids):
            first_row = int(page_id) * per_page
            # The same page decode a row scan uses, fetched directly:
            # index fetches run outside the salvage policy.
            count, columns = table.decode_page(
                table.file.read_page(int(page_id)), self.select
            )
            events.pages_touched += 1
            # A fetched page streams through the caches whole.
            charge_row_page(events, self.context.calibration, table.page_size)
            in_page = rids[page_ids == page_id] - first_row
            wanted = np.zeros(count, dtype=bool)
            wanted[in_page] = True
            blocks.append(self._project(columns, wanted, in_page.size, first_row))
        return concat_blocks(blocks) if blocks else self._empty_block()
