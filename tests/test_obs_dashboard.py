"""Dashboard rendering: text board, HTML snapshot, demo CLI."""

from __future__ import annotations

import pytest

from repro.data.tpch import generate_orders
from repro.engine.query import ScanQuery
from repro.engine.scheduler import Scheduler
from repro.obs import dashboard
from repro.obs import recorder as flight
from repro.storage.layout import Layout
from repro.storage.loader import load_table


@pytest.fixture(autouse=True)
def clean_recorder():
    flight.enable()
    flight.RECORDER.clear()
    yield
    flight.RECORDER.clear()


def _scheduler(clients: int = 3) -> Scheduler:
    data = generate_orders(1_500, seed=41)
    table = load_table(data, Layout.COLUMN)
    scheduler = Scheduler(max_inflight=2, share_scans=True)
    for index in range(clients):
        scheduler.submit(
            table,
            ScanQuery("ORDERS", select=("O_ORDERKEY",)),
            label=f"dash q{index}",
        )
    return scheduler


class TestRenderBoard:
    def test_metrics_only_view_needs_no_scheduler(self):
        text = dashboard.render_board()
        assert "repro scheduler board" in text
        assert "window(60s):" in text
        assert "flight recorder" in text

    def test_board_shows_queue_running_and_streams(self):
        scheduler = _scheduler()
        assert scheduler.poll()
        text = dashboard.render_board(scheduler)
        assert "3 submitted" in text
        assert "dash q" in text
        assert "shared streams" in text
        scheduler.run()
        done = dashboard.render_board(scheduler)
        assert "3 completed" in done
        assert "(idle)" in done

    def test_board_tails_the_flight_recorder(self):
        scheduler = _scheduler()
        scheduler.run()
        text = dashboard.render_board(scheduler)
        assert "scheduler.done" in text

    def test_breaker_section(self):
        from repro.engine.governance import CircuitBreaker

        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure(("ORDERS", "decode"))
        text = dashboard.render_board(breaker=breaker)
        assert "breaker: 1 open" in text
        assert "OPEN ('ORDERS', 'decode')" in text


class TestRenderHtml:
    def test_snapshot_is_standalone_and_escaped(self):
        flight.record("t.kind", "q<script>")
        scheduler = _scheduler()
        scheduler.run()
        html = dashboard.render_html(scheduler)
        assert html.startswith("<!doctype html>")
        assert "<script>" not in html  # event labels are escaped
        assert "window qps" in html


class TestCli:
    def test_demo_runs_headless_and_writes_html(self, tmp_path, capsys):
        out = tmp_path / "board.html"
        assert (
            dashboard.main(
                [
                    "--clients", "3",
                    "--rows", "1500",
                    "--no-ansi",
                    "--html", str(out),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "demo finished" in printed
        assert "3 completed" in printed
        assert out.exists() and "repro scheduler board" in out.read_text()

    def test_frames_emit_intermediate_boards(self, capsys):
        assert (
            dashboard.main(
                ["--clients", "4", "--rows", "2000", "--frames", "1", "--no-ansi"]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert printed.count("repro scheduler board") >= 2
