"""Aggregation operators: hash-based and sort-based (Section 2.2.3)."""

from __future__ import annotations

import numpy as np

from repro.engine.blocks import Block
from repro.engine.context import ExecutionContext
from repro.engine.governance import GovernedAccumulator
from repro.engine.operators.base import Operator, RunOnce
from repro.engine.query import AggregateFunction, AggregateSpec
from repro.errors import EngineError, PlanError


class _AggregateBase(RunOnce):
    """Shared drain-child / emit-groups machinery."""

    def __init__(self, context: ExecutionContext, child: Operator, spec: AggregateSpec):
        super().__init__(context)
        self.child = child
        self.spec = spec

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        call = self.spec.function.value
        if self.spec.argument is not None:
            call += f"({self.spec.argument})"
        if self.spec.group_by:
            call += f" group by {', '.join(self.spec.group_by)}"
        return call

    def _drain_child(self) -> Block:
        # The grouping working set is charged against the query's memory
        # budget at block granularity (reduced-width retry, then abort).
        accumulator = GovernedAccumulator(
            self.context.governance, type(self).__name__
        )
        while True:
            block = self.child.next()
            if block is None:
                break
            accumulator.add(block)
        return accumulator.finish()

    # --- shared aggregation arithmetic -----------------------------------

    def _group_reduce(
        self,
        group_ids: np.ndarray,
        num_groups: int,
        argument: np.ndarray | None,
    ) -> np.ndarray:
        """Per-group reduction of ``argument`` (or counts)."""
        function = self.spec.function
        counts = np.bincount(group_ids, minlength=num_groups)
        self.events.agg_updates += int(group_ids.size)
        if function is AggregateFunction.COUNT:
            return counts
        if argument is None:
            raise EngineError(f"{function.value} needs an argument column")
        if function is AggregateFunction.SUM:
            return np.bincount(group_ids, weights=argument, minlength=num_groups).astype(np.int64)
        if function is AggregateFunction.AVG:
            sums = np.bincount(group_ids, weights=argument, minlength=num_groups)
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        if function is AggregateFunction.MIN:
            out = np.full(num_groups, np.iinfo(np.int64).max)
            np.minimum.at(out, group_ids, argument)
            return out
        if function is AggregateFunction.MAX:
            out = np.full(num_groups, np.iinfo(np.int64).min)
            np.maximum.at(out, group_ids, argument)
            return out
        raise EngineError(f"unsupported aggregate function: {function}")

    def _result_block(
        self,
        group_columns: dict[str, np.ndarray],
        values: np.ndarray,
    ) -> Block:
        return Block(
            columns={**group_columns, self._output_name(): values},
            positions=np.arange(len(values), dtype=np.int64),
        )

    def _output_name(self) -> str:
        return self.spec.output_name()


class HashAggregate(_AggregateBase):
    """Hash-grouped aggregation: one probe per input tuple."""

    def _compute(self) -> Block | None:
        data = self._drain_child()
        for name in self.spec.group_by:
            if name not in data.columns and len(data):
                raise PlanError(f"group-by attribute {name!r} missing from input")
        argument = None
        if self.spec.argument is not None and len(data):
            argument = data.column(self.spec.argument)

        if not len(data):
            return None

        if self.spec.group_by:
            key_arrays = [data.column(name) for name in self.spec.group_by]
            if len(key_arrays) > 1:
                keys = np.rec.fromarrays(key_arrays, names=list(self.spec.group_by))
                distinct, group_ids = np.unique(keys, return_inverse=True)
                group_columns = {
                    name: np.asarray(distinct[name]) for name in self.spec.group_by
                }
            else:
                distinct, group_ids = np.unique(key_arrays[0], return_inverse=True)
                group_columns = {self.spec.group_by[0]: distinct}
            num_groups = len(distinct)
        else:
            group_ids = np.zeros(len(data), dtype=np.int64)
            num_groups = 1
            group_columns = {}

        self.events.group_lookups += len(data)
        values = self._group_reduce(group_ids, num_groups, argument)
        return self._result_block(group_columns, values)


class SortAggregate(_AggregateBase):
    """Sort-based aggregation over input already sorted on the group key.

    Verifies the sort order (cheap) and reduces run-by-run; charges sort
    comparisons only for the run detection, as the input order is free.
    """

    def _compute(self) -> Block | None:
        data = self._drain_child()
        if not len(data):
            return None
        if not self.spec.group_by:
            raise PlanError("sort aggregation requires a group-by key")
        key_arrays = [data.column(name) for name in self.spec.group_by]
        primary = key_arrays[0]
        if primary.size > 1 and np.any(primary[1:] < primary[:-1]):
            raise EngineError(
                "SortAggregate input is not sorted on "
                f"{self.spec.group_by[0]!r}; use SortOperator or HashAggregate"
            )
        change = np.zeros(len(data), dtype=bool)
        change[0] = True
        for keys in key_arrays:
            change[1:] |= keys[1:] != keys[:-1]
        group_ids = np.cumsum(change) - 1
        num_groups = int(group_ids[-1]) + 1
        self.events.sort_comparisons += len(data)

        argument = None
        if self.spec.argument is not None:
            argument = data.column(self.spec.argument)
        starts = np.flatnonzero(change)
        group_columns = {
            name: keys[starts] for name, keys in zip(self.spec.group_by, key_arrays)
        }
        values = self._group_reduce(group_ids, num_groups, argument)
        return self._result_block(group_columns, values)
