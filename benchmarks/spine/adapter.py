"""The spine's whole surface of the system under test.

Every call the benchmark makes into ``repro`` goes through a name
imported here, and only package-level exports are used (plus the five
module-level names listed at the bottom), so a refactor of ``repro``
knows exactly what must keep working: the list in ``README.md`` is this
file's import list.

``repro`` is imported from ``<checkout>/src`` — never from an installed
copy — so a run measures the checkout it was started in.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no system to measure: {SRC / 'repro'} is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import (  # noqa: E402
    CodecKind,
    CostEvents,
    CpuModel,
    Database,
    ExecutionContext,
    IntType,
    Layout,
    Predicate,
    ScanQuery,
    Scheduler,
    WorkloadQuery,
    apply_fig5_compression,
    generate_lineitem,
    generate_orders,
    load_table,
    open_table,
    run_scan,
    save_table,
)
from repro.compression import build_codec_for_values, pack_bits, unpack_bits  # noqa: E402
from repro.engine import (  # noqa: E402
    AggregateSpec,
    ComparisonOp,
    aggregate_plan,
    execute_plan,
)
from repro.obs import metrics, provenance  # noqa: E402
from repro.storage import page_checksum, page_payload_bytes  # noqa: E402

# Module-level names with no package-level export.
from repro.engine.parallel import parallel_query, shutdown_pools  # noqa: E402
from repro.engine.plan import merge_join_plan  # noqa: E402
from repro.engine.query import AggregateFunction  # noqa: E402
from repro.obs import recorder  # noqa: E402


def optional(module: str, name: str):
    """A name only a layer probe needs, or ``None`` once it is gone.

    Probes of non-default paths (fused scanner, PAX, ...) must outlive
    the deletion of their target: the probe then reports ``null``.
    """
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


ColumnScannerKind = optional("repro.engine.plan", "ColumnScannerKind")

__all__ = [
    "ROOT",
    "AggregateFunction",
    "AggregateSpec",
    "CodecKind",
    "ColumnScannerKind",
    "ComparisonOp",
    "CostEvents",
    "CpuModel",
    "Database",
    "ExecutionContext",
    "IntType",
    "Layout",
    "Predicate",
    "ScanQuery",
    "Scheduler",
    "WorkloadQuery",
    "aggregate_plan",
    "apply_fig5_compression",
    "build_codec_for_values",
    "execute_plan",
    "generate_lineitem",
    "generate_orders",
    "load_table",
    "merge_join_plan",
    "metrics",
    "open_table",
    "pack_bits",
    "page_checksum",
    "page_payload_bytes",
    "parallel_query",
    "provenance",
    "recorder",
    "run_scan",
    "save_table",
    "shutdown_pools",
    "unpack_bits",
]
