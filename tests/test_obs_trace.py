"""Operator span tracing: exact attribution, exporters, no-op parity.

The acceptance bar from the observability milestone: for a 3-operator
plan the EXPLAIN ANALYZE text and the Chrome trace agree with each
other, and the per-operator exclusive ``CostEvents`` deltas sum
*exactly* to the plan-total ``CostEvents`` — across all four scanner
architectures.
"""

from __future__ import annotations

import pytest

from repro.cpusim.events import CostEvents
from repro.data.tpch import generate_lineitem, generate_orders
from repro.database import Database
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.plan import ColumnScannerKind, aggregate_plan, scan_plan
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import AggregateFunction, AggregateSpec, ScanQuery
from repro.iosim.request import FileExtent
from repro.iosim.sim import DiskArraySim
from repro.iosim.streams import ScanStream, SubmissionPolicy
from repro.obs import SpanTracer, chrome_trace, flat_profile, render_explain
from repro.storage.layout import Layout
from repro.storage.loader import load_table

ROWS = 600
SELECT = ("L_PARTKEY", "L_QUANTITY", "L_SHIPMODE")


@pytest.fixture(scope="module")
def data():
    return generate_lineitem(ROWS, seed=23)


def _query(data):
    predicate = predicate_for_selectivity(
        "L_PARTKEY", data.column("L_PARTKEY"), 0.30
    )
    return ScanQuery("LINEITEM", select=SELECT, predicates=(predicate,))


def _three_op_plan(context, data):
    """SortAggregate -> SortOperator -> ColumnScanner."""
    table = load_table(data, Layout.COLUMN)
    spec = AggregateSpec(
        group_by=("L_SHIPMODE",),
        function=AggregateFunction.SUM,
        argument="L_QUANTITY",
    )
    return aggregate_plan(context, table, _query(data), spec, sort_based=True)


#: (layout, column-scanner kind) for the four scanner architectures.
ARCHITECTURES = [
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("column-pipelined", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("column-fused", Layout.COLUMN, ColumnScannerKind.FUSED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
]


class TestExactAttribution:
    @pytest.mark.parametrize(
        "layout,kind",
        [(layout, kind) for _, layout, kind in ARCHITECTURES],
        ids=[name for name, _, _ in ARCHITECTURES],
    )
    def test_span_deltas_sum_to_plan_total(self, data, layout, kind):
        context = ExecutionContext(tracer=SpanTracer())
        table = load_table(data, layout)
        result = run_scan(table, _query(data), context, column_scanner=kind)
        assert result.num_tuples > 0
        total = context.tracer.total_events().as_dict()
        assert total == context.events.as_dict()
        # the total is real work, not all zeros
        assert any(total.values())

    def test_three_operator_plan_sums_exactly(self, data):
        context = ExecutionContext(tracer=SpanTracer())
        plan = _three_op_plan(context, data)
        plan.drain()
        tracer = context.tracer
        assert len(tracer.spans()) == 3
        assert tracer.total_events().as_dict() == context.events.as_dict()
        # exclusive events really partition the work: each span holds a
        # strict subset, and no span's exclusive delta is the whole total
        agg, sort, scan = tracer.spans()
        assert agg.events.agg_updates > 0
        assert sort.events.sort_comparisons > 0
        assert scan.events.values_examined > 0
        assert scan.events.agg_updates == 0
        assert agg.events.values_examined == 0


class TestSpanTree:
    def test_tree_structure_matches_plan(self, data):
        context = ExecutionContext(tracer=SpanTracer())
        _three_op_plan(context, data).drain()
        roots = context.tracer.roots
        assert len(roots) == 1
        agg = roots[0]
        assert agg.name == "SortAggregate"
        assert len(agg.children) == 1
        sort = agg.children[0]
        assert sort.name == "SortOperator"
        assert len(sort.children) == 1
        scan = sort.children[0]
        assert scan.name == "ColumnScanner"
        assert scan.children == []

    def test_describe_details_surface_in_spans(self, data):
        context = ExecutionContext(tracer=SpanTracer())
        _three_op_plan(context, data).drain()
        agg, sort, scan = context.tracer.spans()
        assert "sum(L_QUANTITY)" in agg.detail
        assert "L_SHIPMODE" in sort.detail
        assert "LINEITEM" in scan.detail

    def test_wall_time_and_call_accounting(self, data):
        context = ExecutionContext(tracer=SpanTracer())
        _three_op_plan(context, data).drain()
        for span in context.tracer.spans():
            assert span.wall_ns == span.open_ns + span.next_ns + span.close_ns
            # next() is called until it returns None, and a call hands
            # over a batch of one or more logical blocks.
            assert span.next_calls >= 2 and span.blocks >= 1
        agg = context.tracer.roots[0]
        # root rows = number of groups; inclusive wall dominates children
        assert agg.rows > 0
        assert agg.wall_ns >= max(c.wall_ns for c in agg.children)
        assert 0 < agg.self_ns <= agg.wall_ns


class TestExporterAgreement:
    """EXPLAIN ANALYZE and the Chrome trace describe the same execution."""

    @pytest.fixture(scope="class")
    def traced(self, data):
        context = ExecutionContext(tracer=SpanTracer())
        _three_op_plan(context, data).drain()
        return context.tracer

    def test_explain_and_trace_agree_per_span(self, traced):
        text = render_explain(traced)
        document = chrome_trace(traced)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        for span in traced.spans():
            mine = [s for s in slices if s["args"]["span_id"] == span.span_id]
            # one slice per traced call
            next_slices = [s for s in mine if s["args"]["phase"] == "next"]
            assert len(next_slices) == span.next_calls
            assert len(mine) == span.next_calls + 2  # + open + close
            # trace durations (us) sum to the span's inclusive wall time
            assert sum(s["dur"] for s in mine) * 1_000 == pytest.approx(
                span.wall_ns, rel=1e-9, abs=1.0
            )
            # and the explain text reports those same numbers
            assert f"{span.name}" in text
            assert f"next() x{span.next_calls}" in text

    def test_explain_header_counts_operators(self, traced):
        text = render_explain(traced)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "3 operators" in text

    def test_chrome_trace_is_perfetto_shaped(self, traced):
        document = chrome_trace(traced)
        assert document["displayTimeUnit"] == "ms"
        kinds = {e["ph"] for e in document["traceEvents"]}
        assert kinds == {"M", "X"}
        for event in document["traceEvents"]:
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_flat_profile_mirrors_tree(self, traced):
        profile = flat_profile(traced)
        assert len(profile["spans"]) == 3
        by_id = {r["span_id"]: r for r in profile["spans"]}
        root = profile["spans"][0]
        assert root["parent_id"] is None and root["depth"] == 0
        for record in profile["spans"][1:]:
            assert by_id[record["parent_id"]]["depth"] == record["depth"] - 1
        assert profile["total_events"] == traced.total_events().as_dict()
        assert profile["total_wall_ns"] == traced.total_wall_ns


class TestNoOpParity:
    def test_traced_and_untraced_runs_match(self, data):
        table = load_table(data, Layout.COLUMN)
        plain = run_scan(table, _query(data))
        context = ExecutionContext(tracer=SpanTracer())
        traced = run_scan(table, _query(data), context)
        assert plain.num_tuples == traced.num_tuples
        assert plain.events.as_dict() == traced.events.as_dict()
        assert plain.rows() == traced.rows()

    def test_untraced_context_records_no_spans(self, data):
        table = load_table(data, Layout.COLUMN)
        context = ExecutionContext()
        run_scan(table, _query(data), context)
        assert context.tracer is None

    def test_slice_cap_drops_but_keeps_aggregates(self, data):
        tracer = SpanTracer(max_slices=2)
        context = ExecutionContext(tracer=tracer)
        _three_op_plan(context, data).drain()
        assert len(tracer.slices) == 2
        assert tracer.dropped_slices > 0
        assert chrome_trace(tracer)["metadata"]["dropped_slices"] > 0
        # aggregation is unaffected by the slice cap
        assert tracer.total_events().as_dict() == context.events.as_dict()


class TestResetEventsRegression:
    def test_events_survive_repeated_executions(self, data):
        """A caller replaces ``context.events``; operators must re-read it.

        Regression for a latent aliasing bug: an operator caching
        ``context.events`` at construction would write the second run's
        counts into the orphaned first-run object.
        """
        context = ExecutionContext()
        table = load_table(data, Layout.COLUMN)
        plan = scan_plan(context, table, _query(data))
        plan.drain()
        first = context.events
        first_counts = first.as_dict()
        assert first.values_examined > 0

        context.events = CostEvents()
        assert context.events is not first
        plan.drain()
        second = context.events
        # the second run lands in the new object with identical counts...
        assert second.as_dict() == first_counts
        # ...and the first run's result snapshot is untouched
        assert first.as_dict() == first_counts

    def test_query_result_keeps_its_run_counts(self, data):
        context = ExecutionContext()
        table = load_table(data, Layout.COLUMN)
        result = run_scan(table, _query(data), context)
        saved = result.events.as_dict()
        context.events = CostEvents()
        run_scan(table, _query(data), context)
        assert result.events.as_dict() == saved


class TestDatabaseFacade:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.create_table(generate_orders(500, seed=9))
        return database

    def test_explain_text(self, db):
        text = db.explain("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        assert text.startswith("EXPLAIN ANALYZE")
        assert "Scanner" in text
        assert "events:" in text

    def test_profile_bundle(self, db, tmp_path):
        profile = db.profile("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
        assert profile.result.num_tuples == 500
        assert profile.tracer.total_events().as_dict() == {
            **profile.result.events.as_dict()
        }
        payload = profile.to_dict()
        assert payload["provenance"]["git_sha"]
        assert payload["provenance"]["calibration_fingerprint"]
        trace_path = profile.save_chrome_trace(tmp_path / "trace.json")
        prof_path = profile.save_profile(tmp_path / "profile.json")
        import json

        assert json.loads(trace_path.read_text())["traceEvents"]
        assert json.loads(prof_path.read_text())["spans"]


class TestIoSimTrace:
    def test_run_appends_one_slice_per_unit(self):
        sim = DiskArraySim()
        stream = ScanStream(
            name="scan",
            files=[FileExtent("LINEITEM.dat", 8 * sim.unit_bytes)],
            unit_bytes=sim.unit_bytes,
            prefetch_depth=2,
            policy=SubmissionPolicy.ROW,
        )
        trace = []
        stats = sim.run([stream], trace=trace)["scan"]
        assert len(trace) == stats.units
        assert sum(piece.size_bytes for piece in trace) == stats.bytes_read
        assert all(piece.finish > piece.start for piece in trace)
        # first unit pays the initial seek
        assert trace[0].seek_seconds > 0

    def test_io_slices_export_as_second_process(self):
        sim = DiskArraySim()
        stream = ScanStream(
            name="scan",
            files=[FileExtent("LINEITEM.dat", 4 * sim.unit_bytes)],
            unit_bytes=sim.unit_bytes,
            prefetch_depth=2,
            policy=SubmissionPolicy.ROW,
        )
        trace = []
        sim.run([stream], trace=trace)
        document = chrome_trace(io_slices=trace)
        io_events = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "io"
        ]
        assert len(io_events) == len(trace)
        assert all(e["pid"] == 2 for e in io_events)
        names = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["args"].get("name") == "stream scan"
        ]
        assert names
