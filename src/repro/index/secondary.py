"""Unclustered secondary index: sorted (value, RID) pairs.

The classical design the paper describes: the query probes the index,
constructs a list of qualifying Record IDs, and sorts that list to
minimize disk-head movement before fetching.
"""

from __future__ import annotations

import numpy as np

from repro.engine.predicate import Predicate
from repro.errors import PlanError


class SecondaryIndex:
    """A dense secondary index over one attribute of a table."""

    def __init__(self, attr: str, values: np.ndarray):
        if len(values) == 0:
            raise PlanError(f"cannot index an empty column {attr!r}")
        self.attr = attr
        self.num_rows = len(values)
        order = np.argsort(values, kind="stable")
        self._sorted_values = np.asarray(values)[order]
        self._sorted_rids = order.astype(np.int64)

    def lookup_range(self, low, high) -> np.ndarray:
        """RIDs with ``low <= value <= high``, sorted by RID."""
        left = int(np.searchsorted(self._sorted_values, low, side="left"))
        right = int(np.searchsorted(self._sorted_values, high, side="right"))
        rids = self._sorted_rids[left:right]
        return np.sort(rids)

    def lookup_predicate(self, predicate: Predicate) -> np.ndarray:
        """RIDs qualifying under a SARGable predicate, sorted by RID.

        Range and equality predicates use the sorted entries; only the
        comparisons a B-tree could serve are accepted.
        """
        if predicate.attr != self.attr:
            raise PlanError(
                f"index is on {self.attr!r}, predicate on {predicate.attr!r}"
            )
        from repro.engine.predicate import ComparisonOp as Op

        lo_sentinel = self._sorted_values[0]
        hi_sentinel = self._sorted_values[-1]
        op = predicate.op
        value = predicate.value
        if op is Op.LE:
            return self.lookup_range(lo_sentinel, value)
        if op is Op.LT:
            left = 0
            right = int(np.searchsorted(self._sorted_values, value, side="left"))
            return np.sort(self._sorted_rids[left:right])
        if op is Op.GE:
            return self.lookup_range(value, hi_sentinel)
        if op is Op.GT:
            left = int(np.searchsorted(self._sorted_values, value, side="right"))
            return np.sort(self._sorted_rids[left:])
        if op is Op.EQ:
            return self.lookup_range(value, value)
        raise PlanError(f"secondary index cannot serve operator {op.value!r}")
