"""PAX-table scanner.

Reads whole pages (row-store I/O) but only decodes — and only streams
through the cache — the minipages of the attributes the query accesses:
a predicate attribute's whole minipage, a selected one's values for
the qualifying tuples alone (the scan core's read step).  This is the
"increased spatial locality to improve cache performance" of PAX, with
I/O identical to a row store (Section 6).
"""

from __future__ import annotations

import numpy as np

from repro.cpusim.cache import page_lines
from repro.engine.operators.scan_core import PagedScanner


class PaxScanner(PagedScanner):
    """Scan a :class:`PaxTable`, touching only the accessed minipages."""

    def __init__(self, context, table, select, predicates=(), row_range=None):
        super().__init__(context, table, select, predicates, row_range)
        #: Codec kind and packed bits of each accessed minipage.
        self._kinds = [table.schema.attribute(name).spec.kind for name in self._attrs]
        self._bits = np.array([table.page_codec.attribute_bits(name) for name in self._attrs])

    def _charge_pages(self, counts, qualified) -> None:
        events = self.events
        calibration = self.context.calibration
        total = int(counts.sum())
        for kind in self._kinds:
            events.count_decode(kind, total)
        # Only the accessed minipages move through the caches: each
        # page's count against each minipage's width, one call a line size.
        per_page, bits = counts[:, None], self._bits
        events.mem_seq_lines += int(page_lines(per_page, bits, calibration.l2_line_bytes).sum())
        events.l1_lines += int(page_lines(per_page, bits, calibration.l1_line_bytes).sum())
