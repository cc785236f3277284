"""Fused (single-iterator) column scanner — the Section 4.2 extension.

The paper notes that instead of a pipeline of position-driven scan
nodes, a column system can fetch the pages of *all* scanned columns
into memory and iterate over entire rows through memory offsets,
"similarly to a row store" (the PAX / MonetDB approach).  This scanner
implements that optimization: every accessed column is read densely, a
combined predicate mask is computed once, and qualifying tuples are
projected in a single pass.

Compared with the pipelined scanner it trades position-list bookkeeping
for dense decodes of every accessed column — cheaper at high
selectivity, more expensive at very low selectivity.  I/O behaviour is
identical (same files are read).
"""

from __future__ import annotations

import numpy as np

from repro.engine.operators.scan_core import RunOnceScanner, apply_predicates


class FusedColumnScanner(RunOnceScanner):
    """Row-at-a-time iteration over in-memory column pages."""

    #: The dense columns are sized from the window before any page is
    #: read, so an empty window reads nothing.
    EMPTY_WINDOW_READS_A_PAGE = False

    def _compute(self):
        events = self.events
        lo, hi = self.row_range
        # Rows (within the scan window) whose every accessed page
        # decoded; salvage mode clears the spans of skipped pages so the
        # dense columns stay aligned.
        intact = np.ones(hi - lo, dtype=bool)
        columns = {
            name: self._dense_column(name, intact) for name in self._attrs
        }
        # Row-at-a-time iteration across the resident pages.
        events.tuples_examined += hi - lo
        qualified = apply_predicates(events, self._bound, columns, intact, hi - lo)
        return self._project(columns, intact, qualified, lo)

    def _dense_column(self, name: str, intact: np.ndarray) -> np.ndarray:
        """Rows ``[lo, hi)`` of one column; clears ``intact`` where lost."""
        attr = self.table.schema.attribute(name)
        dtype = attr.attr_type.numpy_dtype()
        kind = attr.spec.kind
        lo, hi = self.row_range
        chunks = []
        covered = lo
        for row_base, rows, values in self._dense_pages(self.table.column_file(name)):
            # Only the slice overlapping the row window joins the column.
            start = max(row_base, lo)
            covered = min(row_base + rows, hi)
            if values is None:
                # Placeholder keeps this column's offsets aligned with
                # the others; the rows are masked out.
                chunks.append(np.zeros(covered - start, dtype=dtype))
                intact[start - lo : covered - lo] = False
            else:
                self.events.count_decode(kind, rows)
                chunks.append(values[start - row_base : covered - row_base])
        if covered < hi:
            # Truncated column file (salvage open): pad and mask.
            chunks.append(np.zeros(hi - covered, dtype=dtype))
            intact[covered - lo :] = False
        if not chunks:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(chunks)
