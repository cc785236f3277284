"""Limit and top-N operators.

Report queries usually end in ``ORDER BY ... LIMIT k``; ``TopN`` fuses
the sort with the cutoff (keeping only the best ``k`` per block) so the
limit costs ``n log2 k`` comparisons instead of a full ``n log2 n``
sort.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator, RunOnce
from repro.errors import PlanError


class Limit(Operator):
    """Pass through at most ``count`` tuples, then stop pulling.

    Each pull tells the child how many tuples are still wanted, so a
    scan below releases no page — and hands off no logical block — past
    the one that satisfies the limit.
    """

    def __init__(self, context: ExecutionContext, child: Operator, count: int):
        super().__init__(context)
        if count < 0:
            raise PlanError(f"limit must be non-negative: {count}")
        self.child = child
        self.count = count
        self._remaining = count

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return f"n={self.count}"

    def _open(self) -> None:
        self._remaining = self.count

    def _next(self, want: int | None) -> Block | None:
        if self._remaining <= 0:
            return None
        want = self._remaining if want is None else min(want, self._remaining)
        block = self.child.next(want)
        if block is None:
            return None
        if len(block) > self._remaining:
            block = block.head(self._remaining)
        self._remaining -= len(block)
        return block


class TopN(RunOnce):
    """The ``k`` tuples with the smallest (or largest) key values."""

    def __init__(
        self,
        context: ExecutionContext,
        child: Operator,
        key: str,
        count: int,
        descending: bool = False,
    ):
        super().__init__(context)
        if count <= 0:
            raise PlanError(f"top-N needs a positive count: {count}")
        self.child = child
        self.key = key
        self.count = count
        self.descending = descending

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        order = "largest" if self.descending else "smallest"
        return f"{order} {self.count} by {self.key}"

    def _compute(self) -> Block | None:
        best: Block | None = None
        per_tuple = max(1.0, math.log2(self.count + 1))
        while True:
            block = self.child.next()
            if block is None:
                break
            if not len(block):
                continue
            if self.key not in block.columns:
                raise PlanError(f"top-N key {self.key!r} missing from input")
            merged = block if best is None else concat_blocks([best, block])
            # Maintaining a k-bounded heap: log2(k) per inserted tuple,
            # rounded down per logical block as the block iterator would.
            self.events.sort_comparisons += int(
                (block.block_sizes() * per_tuple).astype(np.int64).sum()
            )
            keys = merged.column(self.key)
            order = np.argsort(keys, kind="stable")
            if self.descending:
                order = order[::-1]
            take = order[: self.count]
            take.sort()  # keep stable input order within the retained set
            mask = np.zeros(len(merged), dtype=bool)
            mask[take] = True
            best = merged.take(mask)
        if best is None:
            return None
        keys = best.column(self.key)
        order = np.argsort(keys, kind="stable")
        if self.descending:
            order = order[::-1]
        return Block(
            columns={name: col[order] for name, col in best.columns.items()},
            positions=best.positions[order],
        )

