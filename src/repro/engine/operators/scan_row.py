"""Row-table scanner.

Iterates over the pages of the single row file and, per page, over the
tuples: applies the predicates, projects qualifying tuples onto the
selected attributes, and emits blocks (Section 2.2.2).  The row store
reads — and therefore streams through the memory hierarchy — every byte
of every page regardless of the projection, which is why its cost
curves are flat in projectivity.
"""

from __future__ import annotations

from repro.compression.base import CodecKind
from repro.engine.operators.scan_core import PagedScanner


def charge_row_page(events, calibration, page_size: int, pages: int = 1) -> None:
    """A row page is touched front to back: purely sequential traffic."""
    events.mem_seq_lines += pages * (page_size // calibration.l2_line_bytes)
    events.l1_lines += pages * (page_size // calibration.l1_line_bytes)


class RowScanner(PagedScanner):
    """Scan a :class:`RowTable`, applying predicates and projecting."""

    #: Decompression is charged for what the query touches; FOR-delta
    #: values depend on their predecessors, so touching one decodes the
    #: whole page.
    LAZY_WHOLE_PAGE_KINDS = (CodecKind.FOR_DELTA,)

    def _charge_pages(self, counts, qualified) -> None:
        charge_row_page(
            self.events, self.context.calibration, self.table.page_size, len(counts)
        )
        self._charge_lazy_decodes(
            int(counts.sum()), int(counts[qualified > 0].sum()), int(qualified.sum())
        )
