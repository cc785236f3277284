"""Relational operators: scanners, aggregation, merge join, sort."""

from repro.engine.operators.aggregate import HashAggregate, SortAggregate
from repro.engine.operators.base import Operator
from repro.engine.operators.limit import Limit, TopN
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.scan_column import ColumnScanner
from repro.engine.operators.scan_fused import FusedColumnScanner
from repro.engine.operators.scan_pax import PaxScanner
from repro.engine.operators.scan_row import RowScanner
from repro.engine.operators.sort import SortOperator

__all__ = [
    "Operator",
    "Limit",
    "TopN",
    "RowScanner",
    "ColumnScanner",
    "FusedColumnScanner",
    "PaxScanner",
    "HashAggregate",
    "SortAggregate",
    "MergeJoin",
    "SortOperator",
]
