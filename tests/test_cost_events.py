"""CostEvents arithmetic: merge, snapshot, diff, scaled.

Span tracing (``repro.obs.trace``) leans on these being exact inverses:
``diff`` of an exit snapshot against an entry snapshot must recover
precisely the work recorded inside the window, including the
``values_decoded`` dict path that plain integer fields don't cover.
"""

from __future__ import annotations

import pytest

from repro.compression.base import CodecKind
from repro.cpusim.events import CostEvents


def _sample(**overrides) -> CostEvents:
    events = CostEvents(
        tuples_examined=100,
        predicate_evals=40,
        values_copied=60,
        bytes_copied=480,
        pages_touched=3,
        mem_seq_lines=25,
        bytes_read=4096,
    )
    for name, value in overrides.items():
        setattr(events, name, value)
    return events


class TestMerge:
    def test_merge_adds_every_int_field(self):
        a = _sample()
        b = _sample()
        a.merge(b)
        assert a.tuples_examined == 200
        assert a.bytes_copied == 960
        assert a.bytes_read == 8192
        # b is untouched
        assert b.tuples_examined == 100

    def test_merge_accumulates_decoded_counts_per_kind(self):
        a = CostEvents()
        a.count_decode(CodecKind.DICT, 10)
        b = CostEvents()
        b.count_decode(CodecKind.DICT, 5)
        b.count_decode(CodecKind.PACK, 7)
        a.merge(b)
        assert a.values_decoded == {CodecKind.DICT: 15, CodecKind.PACK: 7}

    def test_count_decode_ignores_zero(self):
        events = CostEvents()
        events.count_decode(CodecKind.FOR, 0)
        assert events.values_decoded == {}

    def test_merge_then_diff_round_trips(self):
        base = _sample()
        base.count_decode(CodecKind.DICT, 3)
        extra = _sample(tuples_examined=7)
        extra.count_decode(CodecKind.PACK, 2)
        mark = base.snapshot()
        base.merge(extra)
        assert base.diff(mark).as_dict() == extra.as_dict()


class TestSnapshotDiff:
    def test_snapshot_is_independent(self):
        events = _sample()
        events.count_decode(CodecKind.DICT, 4)
        frozen = events.snapshot()
        events.tuples_examined += 50
        events.count_decode(CodecKind.DICT, 6)
        assert frozen.tuples_examined == 100
        assert frozen.values_decoded == {CodecKind.DICT: 4}

    def test_snapshot_does_not_alias_decoded_dict(self):
        events = CostEvents()
        events.count_decode(CodecKind.DICT, 1)
        frozen = events.snapshot()
        assert frozen.values_decoded is not events.values_decoded

    def test_diff_subtracts_counter_wise(self):
        entry = _sample()
        exit_ = _sample(tuples_examined=130, pages_touched=5)
        delta = exit_.diff(entry)
        assert delta.tuples_examined == 30
        assert delta.pages_touched == 2
        assert delta.predicate_evals == 0

    def test_diff_allows_negative_deltas(self):
        smaller = CostEvents(tuples_examined=3)
        larger = CostEvents(tuples_examined=10)
        assert smaller.diff(larger).tuples_examined == -7

    def test_diff_drops_zero_decoded_entries(self):
        entry = CostEvents()
        entry.count_decode(CodecKind.DICT, 5)
        entry.count_decode(CodecKind.PACK, 2)
        exit_ = CostEvents()
        exit_.count_decode(CodecKind.DICT, 5)
        exit_.count_decode(CodecKind.PACK, 9)
        delta = exit_.diff(entry)
        assert delta.values_decoded == {CodecKind.PACK: 7}

    def test_diff_covers_kinds_only_in_baseline(self):
        entry = CostEvents()
        entry.count_decode(CodecKind.FOR, 4)
        delta = CostEvents().diff(entry)
        assert delta.values_decoded == {CodecKind.FOR: -4}


class TestScaled:
    def test_scaled_multiplies_every_counter(self):
        events = _sample()
        scaled = events.scaled(2.5)
        assert scaled.tuples_examined == 250
        assert scaled.bytes_read == 10240
        # original untouched
        assert events.tuples_examined == 100

    def test_scaled_rounds_to_int(self):
        events = CostEvents(tuples_examined=3)
        assert events.scaled(0.5).tuples_examined == 2  # banker's rounding of 1.5

    def test_scaled_covers_decoded_dict(self):
        events = CostEvents()
        events.count_decode(CodecKind.DICT, 10)
        events.count_decode(CodecKind.FOR_DELTA, 4)
        scaled = events.scaled(3.0)
        assert scaled.values_decoded == {
            CodecKind.DICT: 30,
            CodecKind.FOR_DELTA: 12,
        }

    def test_scaled_zero_factor(self):
        events = _sample()
        assert all(v == 0 for v in events.scaled(0.0).as_dict().values())

    def test_scaled_negative_factor_raises(self):
        with pytest.raises(ValueError):
            _sample().scaled(-1.0)


class TestAsDict:
    def test_as_dict_flattens_decoded_kinds(self):
        events = CostEvents(predicate_evals=9)
        events.count_decode(CodecKind.DICT, 11)
        flat = events.as_dict()
        assert flat["predicate_evals"] == 9
        assert flat["decoded_dict"] == 11

    def test_total_decodes(self):
        events = CostEvents()
        events.count_decode(CodecKind.DICT, 5)
        events.count_decode(CodecKind.PACK, 6)
        assert events.total_decodes() == 11


class TestParallelMerge:
    """Worker events merge into the parent context exactly once."""

    @staticmethod
    def _setup():
        from repro.data.tpch import generate_orders
        from repro.engine.predicate import predicate_for_selectivity
        from repro.engine.query import ScanQuery
        from repro.storage.layout import Layout
        from repro.storage.loader import load_table

        data = generate_orders(1_200, seed=13)
        table = load_table(data, Layout.ROW)
        predicate = predicate_for_selectivity(
            "O_TOTALPRICE", data.column("O_TOTALPRICE"), 0.4
        )
        query = ScanQuery(
            "ORDERS",
            select=("O_ORDERKEY", "O_TOTALPRICE"),
            predicates=(predicate,),
        )
        return table, query

    def test_plan_total_equals_sum_of_worker_deltas(self):
        """A parallel scan's plan-total is exactly the sum of its
        per-worker event deltas, plus the parent gather's own block
        emissions (the only work the merge plan adds for a plain
        scan)."""
        from repro.engine.context import ExecutionContext
        from repro.engine.parallel import WorkerTask, _execute_task, parallel_query
        from repro.engine.plan import ColumnScannerKind
        from repro.engine.query import Query
        from repro.storage.partition import partition_ranges

        table, query = self._setup()
        context = ExecutionContext()
        parallel_query(table, query, workers=2, partitions=3, context=context)

        expected = CostEvents()
        gathered_blocks = 0
        for index, row_range in enumerate(partition_ranges(table.num_rows, 3)):
            out = _execute_task(
                WorkerTask(
                    index=index,
                    table=table,
                    query=Query(query),
                    row_range=row_range,
                    position_offset=0,
                    column_scanner=ColumnScannerKind.PIPELINED,
                    calibration=context.calibration,
                    block_size=context.block_size,
                    compressed_execution=False,
                    strict_integrity=True,
                    trace=False,
                )
            )
            expected.merge(out.events)
            if len(out.positions):
                gathered_blocks += 1
        expected.blocks_produced += gathered_blocks  # parent Gather re-emits
        assert context.events.as_dict() == expected.as_dict()

    def test_single_partition_parallel_equals_serial_events(self):
        from repro.engine.context import ExecutionContext
        from repro.engine.executor import run_scan
        from repro.engine.parallel import parallel_query

        table, query = self._setup()
        serial = ExecutionContext()
        run_scan(table, query, serial)
        parallel = ExecutionContext()
        parallel_query(table, query, workers=1, partitions=1, context=parallel)
        got = parallel.events.as_dict()
        want = serial.events.as_dict()
        # The gather node re-emits the worker's materialized block; all
        # scan-side counters must match the serial run exactly.
        assert got.pop("blocks_produced") == want.pop("blocks_produced") + 1
        assert got == want

    def test_traced_parallel_total_matches_context(self):
        """Stitched worker span trees plus the parent merge spans sum
        exactly to the merged plan total — no double counting."""
        from repro.engine.context import ExecutionContext
        from repro.engine.parallel import parallel_query
        from repro.obs.trace import SpanTracer

        table, query = self._setup()
        context = ExecutionContext(tracer=SpanTracer())
        parallel_query(table, query, workers=2, partitions=3, context=context)
        assert context.tracer.total_events().as_dict() == context.events.as_dict()
        tracks = {piece.track for piece in context.tracer.slices}
        assert tracks == {0, 1, 2, 3}  # parent plus one track per worker

    def test_repeated_runs_accumulate_additively(self):
        from repro.engine.context import ExecutionContext
        from repro.engine.parallel import parallel_query

        table, query = self._setup()
        context = ExecutionContext()
        parallel_query(table, query, workers=2, partitions=3, context=context)
        once = context.events.snapshot()
        parallel_query(table, query, workers=2, partitions=3, context=context)
        assert context.events.diff(once).as_dict() == once.as_dict()
