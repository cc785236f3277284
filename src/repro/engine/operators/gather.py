"""Parallel-merge operators: gather partition output and recombine it.

:mod:`repro.engine.parallel` executes one plan per row-range partition
on a thread pool and materializes each partition's output.  These
operators stitch the pieces back together *in the caller's plan*, so the
merge itself is traced and cost-accounted like any other plan node:

* :class:`GatherOperator` — emit the partitions' blocks in partition
  order.  Because partitions are contiguous row ranges handed out in
  order, the concatenation is already in global Record-ID order, which
  makes a plain parallel selection byte-identical to the serial scan.
* :class:`MergePartials` — reduce per-partition partial aggregates
  (count/sum/min/max, or sum+count for AVG) into the final groups with
  the same ``np.unique`` grouping and per-group arithmetic the serial
  :class:`~repro.engine.operators.aggregate.HashAggregate` uses, so
  group order, dtypes, and values match the serial plan exactly.
* :class:`MergeSortedRuns` — merge of per-partition sorted runs, by
  one stable sort of their rows on (keys..., global position).  Ties
  break by Record ID, so equal keys come out in original row order —
  identical to the serial stable sort — even when runs are delivered
  out of partition order (a shared-scan or parallel interleaving must
  not be able to reorder ties).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.aggregate import _AggregateBase
from repro.engine.operators.base import Operator, RunOnce
from repro.engine.query import AggregateFunction, AggregateSpec
from repro.errors import EngineError, PlanError


class GatherOperator(Operator):
    """Emit pre-materialized partition outputs as a block stream.

    The blocks were produced (and their work charged) by the partitions'
    own plans; gathering them is a pointer handoff, so this node adds
    no cost events of its own.  Empty blocks are passed through so a
    no-result scan keeps its output schema, exactly like the serial
    scanners' empty-block emission.
    """

    def __init__(
        self,
        context: ExecutionContext,
        blocks: list[Block],
        detail: str = "",
    ):
        super().__init__(context)
        self._blocks = list(blocks)
        self._detail = detail
        self._cursor = 0

    def describe(self) -> str:
        return self._detail or f"{len(self._blocks)} partition output(s)"

    def _open(self) -> None:
        self._cursor = 0

    def _next(self, want: int | None) -> Block | None:
        if self._cursor >= len(self._blocks):
            return None
        block = self._blocks[self._cursor]
        self._cursor += 1
        return block


class MergePartials(_AggregateBase):
    """Final reduction of per-partition partial aggregate rows.

    The child (a :class:`GatherOperator`) supplies one row per
    (partition, group) holding the partial columns named by
    :meth:`~repro.engine.query.AggregateSpec.output_name` of the
    decomposed specs — ``count``, ``sum_X``, ``min_X``, ``max_X``, or
    both ``sum_X`` and ``count`` for AVG.
    """

    def _compute(self) -> Block | None:
        data = self._drain_child()
        if not len(data):
            return None
        spec = self.spec
        if spec.group_by:
            key_arrays = [data.column(name) for name in spec.group_by]
            if len(key_arrays) > 1:
                keys = np.rec.fromarrays(key_arrays, names=list(spec.group_by))
                distinct, group_ids = np.unique(keys, return_inverse=True)
                group_columns = {
                    name: np.asarray(distinct[name]) for name in spec.group_by
                }
            else:
                distinct, group_ids = np.unique(key_arrays[0], return_inverse=True)
                group_columns = {spec.group_by[0]: distinct}
            num_groups = len(distinct)
        else:
            group_ids = np.zeros(len(data), dtype=np.int64)
            num_groups = 1
            group_columns = {}

        self.events.group_lookups += len(data)
        self.events.agg_updates += len(data)
        values = self._merge_reduce(data, group_ids, num_groups)
        return self._result_block(group_columns, values)

    def _merge_reduce(
        self, data: Block, group_ids: np.ndarray, num_groups: int
    ) -> np.ndarray:
        function = self.spec.function
        argument = self.spec.argument
        if function is AggregateFunction.COUNT:
            return np.bincount(
                group_ids, weights=data.column("count"), minlength=num_groups
            ).astype(np.int64)
        if function is AggregateFunction.SUM:
            return np.bincount(
                group_ids,
                weights=data.column(f"sum_{argument}"),
                minlength=num_groups,
            ).astype(np.int64)
        if function is AggregateFunction.AVG:
            sums = np.bincount(
                group_ids,
                weights=data.column(f"sum_{argument}"),
                minlength=num_groups,
            )
            counts = np.bincount(
                group_ids, weights=data.column("count"), minlength=num_groups
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        if function is AggregateFunction.MIN:
            out = np.full(num_groups, np.iinfo(np.int64).max)
            np.minimum.at(out, group_ids, data.column(f"min_{argument}"))
            return out
        if function is AggregateFunction.MAX:
            out = np.full(num_groups, np.iinfo(np.int64).min)
            np.maximum.at(out, group_ids, data.column(f"max_{argument}"))
            return out
        raise EngineError(f"unsupported aggregate function: {function}")


class MergeSortedRuns(RunOnce):
    """Merge of per-partition runs, each sorted on ``keys``.

    The runs' rows are ordered by ``(key values..., global position)``
    in one stable ``np.lexsort``: each run is internally stable — equal
    keys appear in ascending Record-ID order — and positions are
    globally unique, so this is the k-way merge's total order, and ties
    across runs resolve to original row order no matter how the runs
    were produced or in what order they arrived.  That makes the merged
    output byte-identical to the serial plan's chained stable sorts even
    when partitions finish out of order (a run-index tie-break would be
    wrong the moment runs are not delivered in partition order).  It is
    charged as a k-way merge: ``n log2 k`` comparisons.
    """

    def __init__(
        self,
        context: ExecutionContext,
        runs: list[Block],
        keys: tuple[str, ...],
        detail: str = "",
    ):
        super().__init__(context)
        if not keys:
            raise PlanError("merge of sorted runs needs at least one key")
        self.keys = tuple(keys)
        self._runs = list(runs)
        self._detail = detail

    def describe(self) -> str:
        base = f"keys={', '.join(self.keys)}"
        if self._detail:
            base += f" | {self._detail}"
        return base

    def _compute(self) -> Block | None:
        runs = [run for run in self._runs if len(run)]
        if not runs:
            # Preserve the shared output schema of a no-result query.
            return concat_blocks(self._runs)
        for run in runs:
            for key in self.keys:
                if key not in run.columns:
                    raise PlanError(f"merge key {key!r} missing from input")
        merged = concat_blocks(runs)
        # ``np.lexsort`` sorts by its last key first.
        keys = [merged.column(key) for key in reversed(self.keys)]
        order = np.lexsort((merged.positions, *keys))
        n = len(merged)
        self.events.sort_comparisons += int(
            n * max(1.0, math.log2(max(len(runs), 2)))
        )
        width = sum(int(col.dtype.itemsize) for col in merged.columns.values())
        self.events.values_copied += n * len(merged.columns)
        self.events.bytes_copied += n * width
        return Block(
            columns={name: col[order] for name, col in merged.columns.items()},
            positions=merged.positions[order],
        )
