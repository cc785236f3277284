"""Slow-query log: threshold/top-K semantics and workload capture."""

from __future__ import annotations

import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.scheduler import WorkloadQuery
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog


def _entry(label: str, latency_s: float, **kwargs) -> SlowQueryEntry:
    defaults = dict(
        table="ORDERS",
        queue_s=0.0,
        slices=3,
        rows=10,
        error=None,
    )
    defaults.update(kwargs)
    return SlowQueryEntry(label=label, latency_s=latency_s, **defaults)


class TestSlowQueryLog:
    def test_keeps_only_the_top_k_slowest(self):
        log = SlowQueryLog(top_k=2)
        for label, latency in (("a", 0.1), ("b", 0.3), ("c", 0.2), ("d", 0.05)):
            log.observe(_entry(label, latency))
        assert log.observed == 4
        assert [e.label for e in log.entries()] == ["b", "c"]

    def test_threshold_filters_before_the_heap(self):
        log = SlowQueryLog(threshold_s=0.1, top_k=5)
        assert not log.observe(_entry("fast", 0.05))
        assert log.observe(_entry("slow", 0.2))
        assert len(log) == 1

    def test_ties_prefer_the_earlier_entry(self):
        log = SlowQueryLog(top_k=1)
        assert log.observe(_entry("first", 0.2))
        assert not log.observe(_entry("second", 0.2))
        assert [e.label for e in log.entries()] == ["first"]

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowQueryLog(top_k=0)

    def test_render_is_slowest_first_with_forensics(self):
        log = SlowQueryLog(top_k=3)
        log.observe(_entry("a", 0.01, events={"pages_touched": 7}))
        log.observe(_entry("b", 0.02, error="QueryTimeout", events={}))
        text = log.render()
        assert text.splitlines()[0].startswith("slow-query log: top 2 of 2")
        assert text.index("#1 b") < text.index("#2 a")
        assert "[QueryTimeout]" in text
        assert "pages=7" in text

    def test_render_includes_explain_when_present(self):
        log = SlowQueryLog()
        log.observe(_entry("a", 0.01, explain="EXPLAIN ANALYZE\nScanner"))
        assert "  | Scanner" in log.render()


class TestWorkloadCapture:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.create_table(generate_orders(2_000, seed=29))
        return database

    def test_run_workload_returns_a_populated_slowlog(self, db):
        info = {}
        requests = [WorkloadQuery("ORDERS", select=("O_ORDERKEY",))] * 4
        handles = db.run_workload(requests, info=info)
        log = info["slowlog"]
        assert isinstance(log, SlowQueryLog)
        assert log.observed == len(handles)
        entries = log.entries()
        assert entries, "default threshold 0.0 keeps completed queries"
        latencies = [entry.latency_s for entry in entries]
        assert latencies == sorted(latencies, reverse=True)
        assert {entry.table for entry in entries} == {"ORDERS"}
        assert all(entry.slices > 0 for entry in entries)

    def test_custom_log_controls_threshold_and_k(self, db):
        log = SlowQueryLog(threshold_s=3600.0, top_k=2)
        requests = [WorkloadQuery("ORDERS", select=("O_ORDERKEY",))] * 3
        db.run_workload(requests, slowlog=log)
        assert log.observed == 3
        assert len(log) == 0  # nothing clears a one-hour threshold

    def test_traced_batches_attach_explain_text(self, db):
        info = {}
        db.run_workload(
            [WorkloadQuery("ORDERS", select=("O_ORDERKEY",))],
            trace=True,
            info=info,
        )
        entries = info["slowlog"].entries()
        assert entries and entries[0].explain
        assert "EXPLAIN ANALYZE" in entries[0].explain

    def test_failed_queries_carry_their_error(self, db):
        info = {}
        db.run_workload(
            [WorkloadQuery("ORDERS", select=("O_ORDERKEY",), timeout=1e-9)],
            info=info,
        )
        entries = info["slowlog"].entries()
        assert entries[0].error == "QueryTimeout"
