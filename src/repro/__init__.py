"""repro — a reproduction of *Performance Tradeoffs in Read-Optimized
Databases* (Harizopoulos, Liang, Abadi, Madden; VLDB 2006).

The package implements the paper's read-optimized storage manager and
query engine for both row- and column-oriented data — dense-packed
pages, light-weight compression, pipelined column scanners, a
block-iterator operator layer — together with the hardware substrate
the paper measures on: a discrete-event disk-array simulator and a
Pentium 4-class CPU/memory cost model, plus the Section 5 analytical
model.

Quick start::

    from repro import (
        generate_lineitem, load_table, Layout, ScanQuery,
        predicate_for_selectivity, run_scan,
    )

    data = generate_lineitem(10_000, seed=1)
    table = load_table(data, Layout.COLUMN)
    pred = predicate_for_selectivity(
        "L_PARTKEY", data.column("L_PARTKEY"), 0.10)
    query = ScanQuery("LINEITEM",
                      select=("L_PARTKEY", "L_QUANTITY"),
                      predicates=(pred,))
    result = run_scan(table, query)
"""

from repro.compression import (
    Codec,
    CodecKind,
    CodecSpec,
    CompressionAdvisor,
    build_codec,
    choose_spec,
)
from repro.cpusim import Calibration, CostEvents, CpuBreakdown, CpuModel
from repro.database import Database
from repro.data import (
    GeneratedTable,
    apply_fig5_compression,
    generate_lineitem,
    generate_orders,
    generate_tpch_pair,
    lineitem_schema,
    orders_schema,
)
from repro.engine import (
    CancellationToken,
    ExecutionContext,
    Predicate,
    Query,
    QueryContext,
    QueryHandle,
    QueryResult,
    ScanQuery,
    Scheduler,
    WorkloadQuery,
    predicate_for_selectivity,
    run_scan,
)
from repro.errors import (
    GovernanceError,
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    ReproError,
)
from repro.experiments import (
    CompetingTraffic,
    ExperimentConfig,
    ScanMeasurement,
    measure_scan,
)
from repro.iosim import DiskArraySim, FileExtent, ScanStream, SubmissionPolicy
from repro.model import HardwareParams, QueryShape, SpeedupModel
from repro.obs import (
    QueryProfile,
    SpanTracer,
    chrome_trace,
    flat_profile,
    provenance,
    render_explain,
)
from repro.storage import (
    BulkLoader,
    ColumnTable,
    Layout,
    RowTable,
    Table,
    WriteOptimizedStore,
    load_table,
    open_table,
    save_table,
)
from repro.types import Attribute, FixedTextType, IntType, TableSchema

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Database",
    # governance
    "CancellationToken",
    "QueryContext",
    "GovernanceError",
    "QueryTimeout",
    "QueryCancelled",
    "MemoryBudgetExceeded",
    # types
    "IntType",
    "FixedTextType",
    "Attribute",
    "TableSchema",
    # data
    "GeneratedTable",
    "generate_lineitem",
    "generate_orders",
    "generate_tpch_pair",
    "lineitem_schema",
    "orders_schema",
    "apply_fig5_compression",
    # compression
    "Codec",
    "CodecKind",
    "CodecSpec",
    "CompressionAdvisor",
    "build_codec",
    "choose_spec",
    # storage
    "Layout",
    "Table",
    "RowTable",
    "ColumnTable",
    "BulkLoader",
    "load_table",
    "save_table",
    "open_table",
    "WriteOptimizedStore",
    # engine
    "ScanQuery",
    "Query",
    "Predicate",
    "predicate_for_selectivity",
    "ExecutionContext",
    "run_scan",
    "QueryResult",
    # concurrent workloads
    "Scheduler",
    "WorkloadQuery",
    "QueryHandle",
    # simulators
    "CostEvents",
    "CpuBreakdown",
    "CpuModel",
    "Calibration",
    "DiskArraySim",
    "ScanStream",
    "SubmissionPolicy",
    "FileExtent",
    # observability
    "SpanTracer",
    "QueryProfile",
    "render_explain",
    "chrome_trace",
    "flat_profile",
    "provenance",
    # model
    "SpeedupModel",
    "QueryShape",
    "HardwareParams",
    # experiments
    "ExperimentConfig",
    "CompetingTraffic",
    "measure_scan",
    "ScanMeasurement",
]
