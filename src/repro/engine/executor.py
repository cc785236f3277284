"""Plan execution and result collection."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cpusim.events import CostEvents
from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.plan import ColumnScannerKind, build_plan
from repro.engine.query import Query, ScanQuery
from repro.errors import ReproError
from repro.obs import recorder as flight
from repro.storage.scrub import CorruptionReport
from repro.storage.table import Table


@dataclass
class QueryResult:
    """Materialized output of one plan execution plus its cost events."""

    columns: dict[str, np.ndarray]
    positions: np.ndarray
    events: CostEvents
    #: Pages skipped while producing this result (salvage-mode scans);
    #: empty/clean under strict integrity, where corruption aborts.
    corruption: CorruptionReport = field(default_factory=CorruptionReport)

    @property
    def num_tuples(self) -> int:
        return len(self.positions)

    @property
    def is_complete(self) -> bool:
        """True when no page was skipped to produce this result."""
        return self.corruption.is_clean

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def rows(self) -> list[tuple]:
        """Tuples in column order, materialized as Python objects.

        Testing convenience only — the engine itself never pivots
        columns back into tuples.  One ``zip(*columns)`` pass over
        columns converted via ``ndarray.tolist()`` (a single C-level
        conversion per column) instead of per-cell numpy indexing,
        which was O(tuples x columns) Python-level work.
        """
        if not self.columns:
            return [() for _ in range(self.num_tuples)]
        return list(zip(*(self.columns[name].tolist() for name in self.columns)))


def execute_plan(plan: Operator) -> QueryResult:
    """Drain a plan and return its materialized output."""
    blocks = plan.drain()
    merged = concat_blocks(blocks)
    return QueryResult(
        columns=merged.columns,
        positions=merged.positions,
        events=plan.context.events,
        corruption=plan.context.corruption,
    )


def run_scan(
    table: Table,
    query: ScanQuery | Query,
    context: ExecutionContext | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    salvage: bool = False,
) -> QueryResult:
    """The serial executor: plan one query against a table and drain it.

    ``query`` is a scan or a whole :class:`~repro.engine.query.Query`
    (aggregate, sort, limit, top-N, merge join above the scan).
    With ``salvage=True`` the scan degrades instead of aborting on
    corrupt pages: their rows are skipped consistently across scan
    nodes and tallied in :attr:`QueryResult.corruption`; the scan runs
    under a copy of ``context`` that shares its events, corruption
    report, tracer and governance, so the caller's context stays strict.
    """
    context = context or ExecutionContext()
    if salvage:
        context = replace(context, strict_integrity=False)
    plan = build_plan(context, table, query, column_scanner)
    # The pages its salvage dropped: the faults the report gains.
    faults = context.corruption.faults
    before = len(faults)
    started = time.perf_counter()
    try:
        result = execute_plan(plan)
    except ReproError as exc:
        flight.record(
            "query.failed", context.label, error=type(exc).__name__, salvaged=len(faults) - before
        )
        raise
    finally:
        context.observe_decodes()
    flight.record(
        "query.done",
        context.label,
        latency_s=time.perf_counter() - started,
        rows=result.num_tuples,
        salvaged=len(faults) - before,
    )
    return result
