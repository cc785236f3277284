"""Slow-query log: top-K forensics for the slowest queries of a batch.

Real column stores keep a slow-query log because the p99 tail is where
workload pathologies live — a query that queued behind a convoy, missed
the shared-scan attach window, or burned CPU salvaging corrupt pages.
This module captures exactly that for the cooperative scheduler: every
finished query whose latency clears ``threshold_s`` competes for one of
``top_k`` slots (a min-heap keeps only the slowest), and each kept
entry freezes the forensics the scheduler had at finish time — queue
vs execution split, time-slice count, the per-query CostEvents diff
(each scheduled query runs on its own ``ExecutionContext``, so its
``events`` *is* the diff against zero), whether it rode a shared
stream, and the full EXPLAIN ANALYZE text when the batch was traced.

:meth:`repro.database.Database.run_workload` attaches a log to each
batch and leaves it in the dict the caller passes as ``info``::

    handles = db.run_workload(requests, info=(info := {}))
    print(info["slowlog"].render())
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["SlowQueryEntry", "SlowQueryLog"]


@dataclass
class SlowQueryEntry:
    """Forensics for one slow query, frozen at finish time."""

    label: str
    table: str
    latency_s: float
    #: Admission-queue wait (already included in ``latency_s``).
    queue_s: float
    #: Cooperative timeslices the scheduler granted this query.
    slices: int
    rows: int | None
    #: Typed error name for failed queries, ``None`` for completed ones.
    error: str | None
    #: Whether the query rode a shared circular scan stream.
    shared: bool
    #: Per-query CostEvents diff (pages, decode ns, tuples, ...).
    events: dict = field(default_factory=dict)
    #: EXPLAIN ANALYZE text when the batch ran with ``trace=True``.
    explain: str | None = None

    def render(self) -> str:
        status = self.error or "ok"
        lines = [
            f"{self.label} [{status}] table={self.table} "
            f"latency={self.latency_s * 1e3:.2f}ms "
            f"(queued {self.queue_s * 1e3:.2f}ms) "
            f"slices={self.slices} rows={self.rows} "
            f"shared={'yes' if self.shared else 'no'}"
        ]
        if self.events:
            pages = self.events.get("pages_touched", 0)
            values = self.events.get("values_examined", 0)
            copied = self.events.get("bytes_copied", 0)
            lines.append(
                f"  events: pages={pages} values={values} copied={copied}B"
                + ("  (stream pays the I/O)" if self.shared else "")
            )
        if self.explain:
            lines.extend("  | " + line for line in self.explain.splitlines())
        return "\n".join(lines)


class SlowQueryLog:
    """Threshold + top-K capture of the slowest queries in a batch.

    ``threshold_s`` filters first (0.0 admits everything); among
    admitted entries a bounded min-heap keeps only the ``top_k``
    slowest, so a million-query batch still holds ``top_k`` entries.
    """

    def __init__(self, threshold_s: float = 0.0, top_k: int = 5):
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1: {top_k}")
        self.threshold_s = threshold_s
        self.top_k = top_k
        #: ``(latency, insertion_seq, entry)`` min-heap; root = fastest kept.
        self._heap: list[tuple[float, int, SlowQueryEntry]] = []
        #: Queries observed (kept or not): the render header, the heap's tie-break.
        self.observed = 0

    def observe(self, entry: SlowQueryEntry) -> bool:
        """Offer one finished query; returns True when it was kept."""
        self.observed += 1
        if entry.latency_s < self.threshold_s:
            return False
        item = (entry.latency_s, self.observed, entry)
        if len(self._heap) < self.top_k:
            heapq.heappush(self._heap, item)
            return True
        if item[0] <= self._heap[0][0]:
            return False
        heapq.heappushpop(self._heap, item)
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def entries(self) -> list[SlowQueryEntry]:
        """Kept entries, slowest first."""
        return [
            item[2]
            for item in sorted(self._heap, key=lambda item: -item[0])
        ]

    def render(self) -> str:
        """Human-readable log, slowest first."""
        header = (
            f"slow-query log: top {len(self._heap)} of {self.observed} "
            f"queries (threshold {self.threshold_s * 1e3:.1f}ms)"
        )
        parts = [header]
        for rank, entry in enumerate(self.entries(), 1):
            parts.append(f"#{rank} {entry.render()}")
        return "\n".join(parts)
