"""Block-iterator relational query engine (Section 2.2).

Operators pull blocks of ~100 tuples (sized to fit L1) from their
children; row and column scanners produce identical output formats and
are interchangeable under the same plan.  While executing on real data,
every operator accumulates :class:`~repro.cpusim.events.CostEvents`
through the shared :class:`~repro.engine.context.ExecutionContext`.
"""

from repro.engine.blocks import Block
from repro.engine.compressed_exec import CodePredicate, rewrite_all, rewrite_predicate
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan, run_scan
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.plan import aggregate_plan, build_plan, scan_plan
from repro.engine.predicate import (
    ComparisonOp,
    Predicate,
    predicate_for_selectivity,
)
from repro.engine.query import AggregateSpec, JoinSide, Query, ScanQuery
from repro.engine.scheduler import (
    QueryHandle,
    QueryState,
    Scheduler,
    WorkloadQuery,
)
from repro.engine.sharing import (
    ScanShareManager,
    SharedScanConsumer,
    SharedScanStream,
)

__all__ = [
    "Block",
    "CodePredicate",
    "rewrite_predicate",
    "rewrite_all",
    "ExecutionContext",
    "CancellationToken",
    "CircuitBreaker",
    "QueryContext",
    "SupervisionPolicy",
    "Predicate",
    "ComparisonOp",
    "predicate_for_selectivity",
    "ScanQuery",
    "AggregateSpec",
    "Query",
    "JoinSide",
    "build_plan",
    "scan_plan",
    "aggregate_plan",
    "execute_plan",
    "run_scan",
    "QueryResult",
    "QueryHandle",
    "QueryState",
    "Scheduler",
    "WorkloadQuery",
    "ScanShareManager",
    "SharedScanConsumer",
    "SharedScanStream",
]
