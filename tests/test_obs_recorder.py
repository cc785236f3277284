"""Flight recorder: ring semantics, black boxes, workload integration."""

from __future__ import annotations

import json

import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.query import ScanQuery
from repro.engine.scheduler import WorkloadQuery
from repro.errors import QueryTimeout
from repro.obs import SpanTracer
from repro.obs import recorder as flight
from repro.obs.recorder import FlightRecorder
from repro.storage.layout import Layout
from repro.storage.loader import load_table


@pytest.fixture(autouse=True)
def clean_recorder():
    """Each test starts with an enabled, empty global ring."""
    flight.enable()
    flight.RECORDER.clear()
    yield
    flight.enable()
    flight.RECORDER.clear()


class TestRing:
    def test_eviction_is_oldest_first(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(6):
            recorder.record("t.event", index=index)
        assert len(recorder) == 4
        assert [event.seq for event in recorder.events()] == [2, 3, 4, 5]
        assert [event.detail["index"] for event in recorder.events()] == [
            2, 3, 4, 5,
        ]

    def test_sequence_survives_clear(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("t.a")
        recorder.record("t.b")
        recorder.clear()
        assert len(recorder) == 0
        recorder.record("t.c")
        assert recorder.events()[0].seq == 2

    def test_kind_filter_matches_exact_and_layer_prefix(self):
        recorder = FlightRecorder()
        recorder.record("share.attach")
        recorder.record("share.wrap")
        recorder.record("scheduler.admit")
        assert [e.kind for e in recorder.events(kind="share")] == [
            "share.attach",
            "share.wrap",
        ]
        assert [e.kind for e in recorder.events(kind="share.wrap")] == [
            "share.wrap"
        ]
        # "sched" is not a layer prefix of "scheduler.admit".
        assert recorder.events(kind="sched") == []

    def test_query_slicing(self):
        recorder = FlightRecorder()
        recorder.record("t.a", "q1")
        recorder.record("t.b", "q2")
        recorder.record("t.c", "q1")
        recorder.record("t.d", None)
        assert [e.kind for e in recorder.events(query="q1")] == ["t.a", "t.c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_event_dict_is_json_ready(self):
        recorder = FlightRecorder()
        recorder.record("t.a", "q", n=3)
        payload = recorder.events()[0].as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["kind"] == "t.a"
        assert payload["detail"] == {"n": 3}


class TestEnableDisable:
    def test_disabled_record_is_dropped(self):
        flight.disable()
        assert not flight.enabled()
        flight.record("t.dropped")
        flight.enable()
        assert flight.RECORDER.events(kind="t.dropped") == []
        flight.record("t.kept")
        assert len(flight.RECORDER.events(kind="t.kept")) == 1


class TestBlackbox:
    def test_box_freezes_the_failing_querys_slice(self):
        recorder = FlightRecorder()
        recorder.record("scheduler.admit", "victim")
        recorder.record("scheduler.admit", "peer")
        recorder.record("governance.timeout", "victim", overdue_s=0.1)
        box = recorder.dump_blackbox(
            "victim",
            error=QueryTimeout("too slow"),
            governance={"label": "victim"},
            replay="python -m repro.testing.chaos --seed 7",
        )
        assert box["query"] == "victim"
        assert box["error"] == {"type": "QueryTimeout", "message": "too slow"}
        assert [e["kind"] for e in box["events"]] == [
            "scheduler.admit",
            "governance.timeout",
        ]
        assert all(e["query"] == "victim" for e in box["events"])
        assert box["replay"].endswith("--seed 7")
        for key in ("git_sha", "timestamp_utc", "calibration_fingerprint"):
            assert box["provenance"][key]
        assert "spans" not in box  # untraced query: no span tree

    def test_box_includes_span_tree_when_traced(self):
        data = generate_orders(300, seed=3)
        table = load_table(data, Layout.COLUMN)
        context = ExecutionContext(tracer=SpanTracer())
        run_scan(table, ScanQuery("ORDERS", select=("O_ORDERKEY",)), context)
        box = FlightRecorder().dump_blackbox("q", tracer=context.tracer)
        assert box["spans"]["spans"], "traced failure should carry its profile"

    def test_boxes_are_bounded_and_write_as_json_files(self, tmp_path):
        recorder = FlightRecorder(max_blackboxes=2)
        for index in range(3):
            recorder.record("t.fail", f"q{index}")
            recorder.dump_blackbox(f"q{index}")
        assert [box["seq"] for box in recorder.blackboxes] == [1, 2]
        paths = recorder.write_blackboxes(tmp_path)
        assert [path.name for path in paths] == [
            "blackbox-0001.json",
            "blackbox-0002.json",
        ]
        reloaded = json.loads(paths[0].read_text())
        assert reloaded["query"] == "q1"


class TestWorkloadIntegration:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.create_table(generate_orders(3_000, seed=19))
        return database

    def _requests(self, timeout=None):
        select = ("O_ORDERKEY", "O_TOTALPRICE")
        return [
            WorkloadQuery("ORDERS", select=select),
            WorkloadQuery("ORDERS", select=select, timeout=timeout),
            WorkloadQuery("ORDERS", select=select),
        ]

    def test_each_failure_dumps_exactly_one_blackbox(self, db):
        handles = db.run_workload(self._requests(timeout=1e-9))
        failed = [h for h in handles if h.error is not None]
        assert len(failed) == 1
        assert isinstance(failed[0].error, QueryTimeout)
        boxes = db.dump_blackbox()
        assert len(boxes) == 1
        box = boxes[0]
        assert box["query"] == failed[0].governance.label
        assert box["error"]["type"] == "QueryTimeout"
        assert box["events"], "the box must carry the query's event slice"
        assert all(e["query"] == box["query"] for e in box["events"])

    def test_healthy_workload_dumps_nothing_but_records_lifecycle(self, db):
        handles = db.run_workload(self._requests())
        assert all(h.error is None for h in handles)
        assert db.dump_blackbox() == []
        recorder = db.flight_recorder()
        assert recorder is flight.RECORDER
        submits = recorder.events(kind="scheduler.submit")
        assert len(submits) == len(handles)
        # Unique per-submission labels keep event slices disjoint.
        labels = [h.governance.label for h in handles]
        assert len(set(labels)) == len(labels)

    def test_blackboxes_written_to_directory(self, db, tmp_path):
        db.run_workload(self._requests(timeout=1e-9))
        paths = db.dump_blackbox(tmp_path)
        assert len(paths) == 1
        assert json.loads(paths[0].read_text())["error"]["type"] == "QueryTimeout"

    def test_disabled_recorder_skips_capture(self, db):
        flight.disable()
        handles = db.run_workload(self._requests(timeout=1e-9))
        assert any(h.error is not None for h in handles)
        flight.enable()
        assert db.dump_blackbox() == []
        assert len(flight.RECORDER) == 0
