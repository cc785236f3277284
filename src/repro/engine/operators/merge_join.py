"""Merge join over sorted inputs (Section 2.2.3).

Joins two children whose key columns are sorted ascending, with the
restriction that the *left* child's keys are unique (the dimension /
parent side).  This covers the paper's schema: ORDERS (unique, sorted
``O_ORDERKEY``) joined with LINEITEM (sorted, many per key).
"""

from __future__ import annotations

import numpy as np

from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator, RunOnce
from repro.errors import EngineError, PlanError


class MergeJoin(RunOnce):
    """One-to-many merge join of two sorted block streams."""

    def __init__(
        self,
        context: ExecutionContext,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(context)
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"{self.left_key} = {self.right_key}"

    def _drain(self, child: Operator) -> Block:
        blocks = []
        while True:
            block = child.next()
            if block is None:
                break
            if len(block):
                blocks.append(block)
        return concat_blocks(blocks)

    def _compute(self) -> Block | None:
        left = self._drain(self.left)
        right = self._drain(self.right)
        if not len(left) or not len(right):
            return None
        left_keys = left.column(self.left_key)
        right_keys = right.column(self.right_key)
        self._check_sorted(left_keys, "left")
        self._check_sorted(right_keys, "right")
        # Sorted, so a duplicate sits next to its twin.
        if np.any(left_keys[1:] == left_keys[:-1]):
            raise PlanError(
                f"merge join requires unique keys on the left input "
                f"({self.left_key!r})"
            )

        # Advance both cursors once over each input: n_left + n_right
        # key comparisons, exactly the merge-join cost model.
        self.events.join_comparisons += len(left_keys) + len(right_keys)

        # For each right tuple, the index of its matching left tuple.
        idx = np.searchsorted(left_keys, right_keys)
        idx_clipped = np.minimum(idx, len(left_keys) - 1)
        matches = left_keys[idx_clipped] == right_keys
        right_sel = np.flatnonzero(matches)
        left_sel = idx_clipped[matches]

        matched = int(right_sel.size)
        out_columns: dict[str, np.ndarray] = {}
        for name, column in left.columns.items():
            out_columns[name] = column[left_sel]
        for name, column in right.columns.items():
            if name in out_columns:
                if name != self.right_key or not np.array_equal(
                    out_columns[name], column[right_sel]
                ):
                    raise EngineError(
                        f"duplicate output attribute {name!r} in merge join"
                    )
                continue
            out_columns[name] = column[right_sel]

        width = 0
        for name in out_columns:
            width += int(out_columns[name].dtype.itemsize)
        self.events.values_copied += matched * len(out_columns)
        self.events.bytes_copied += matched * width

        # A join without a match still emits its (empty) output schema.
        return Block(columns=out_columns, positions=right.positions[right_sel])

    @staticmethod
    def _check_sorted(keys: np.ndarray, side: str) -> None:
        if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
            raise PlanError(f"merge join {side} input is not sorted")
