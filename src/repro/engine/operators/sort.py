"""Materializing sort operator.

Used below :class:`~repro.engine.operators.aggregate.SortAggregate` or
:class:`~repro.engine.operators.merge_join.MergeJoin` when an input is
not already clustered on the key.  Charges ``n log2 n`` comparisons.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.blocks import Block
from repro.engine.context import ExecutionContext
from repro.engine.governance import GovernedAccumulator
from repro.engine.operators.base import Operator, RunOnce
from repro.errors import PlanError


class SortOperator(RunOnce):
    """Sort the child's entire output on one attribute."""

    def __init__(
        self,
        context: ExecutionContext,
        child: Operator,
        key: str,
        descending: bool = False,
    ):
        super().__init__(context)
        self.child = child
        self.key = key
        self.descending = descending

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"key={self.key}" + (" desc" if self.descending else "")

    def _compute(self) -> Block | None:
        # Materialization is charged against the query's memory budget at
        # block granularity (with a reduced-width retry before aborting).
        accumulator = GovernedAccumulator(self.context.governance, "sort")
        while True:
            block = self.child.next()
            if block is None:
                break
            accumulator.add(block)
        data = accumulator.finish()
        if not len(data):
            return None
        if self.key not in data.columns:
            raise PlanError(f"sort key {self.key!r} missing from input")
        n = len(data)
        self.events.sort_comparisons += int(n * max(1.0, math.log2(n)))
        order = np.argsort(data.column(self.key), kind="stable")
        if self.descending:
            order = order[::-1]
        width = sum(int(col.dtype.itemsize) for col in data.columns.values())
        self.events.values_copied += n * len(data.columns)
        self.events.bytes_copied += n * width
        return Block(
            columns={name: col[order] for name, col in data.columns.items()},
            positions=data.positions[order],
        )
