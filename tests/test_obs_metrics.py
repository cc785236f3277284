"""Metrics registry, Prometheus exposition, and run provenance."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.cpusim.calibration import Calibration
from repro.data.tpch import generate_orders
from repro.engine.predicate import predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.executor import run_scan
from repro.errors import TransientIOError
from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingWindow,
    exponential_buckets,
)
from repro.obs.provenance import git_sha, provenance
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.retry import RetryPolicy, retry_io
from tests.conftest import zero_metrics


@pytest.fixture(autouse=True)
def metrics_enabled():
    """Each test starts enabled with zeroed values, and leaves no residue."""
    metrics.enable()
    zero_metrics()
    yield
    metrics.enable()
    zero_metrics()


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("t_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("t_total", "help").inc(-1)

    def test_invalid_names_rejected(self):
        for bad in ("", "9lives", "has-dash", "has space"):
            with pytest.raises(ValueError):
                Counter(bad, "help")


class TestHistogram:
    def test_le_bucket_semantics(self):
        hist = Histogram("t_seconds", "help", buckets=[1.0, 10.0])
        hist.observe(0.5)    # le=1
        hist.observe(1.0)    # boundary: still le=1
        hist.observe(5.0)    # le=10
        hist.observe(100.0)  # +Inf overflow
        assert hist.bucket_counts() == [(1.0, 2), (10.0, 3), (float("inf"), 4)]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)

    def test_render_is_cumulative_and_inf_terminated(self):
        hist = Histogram("t_seconds", "help", buckets=[1.0, 10.0])
        hist.observe(0.5)
        lines = hist.render()
        assert 't_seconds_bucket{le="1"} 1' in lines
        assert 't_seconds_bucket{le="10"} 1' in lines
        assert 't_seconds_bucket{le="+Inf"} 1' in lines
        assert "t_seconds_count 1" in lines

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("t_gauge", "help")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_disabled_mutations_dropped(self):
        gauge = Gauge("t_gauge", "help")
        metrics.disable()
        gauge.set(9)
        gauge.inc()
        metrics.enable()
        assert gauge.value == 0.0

    def test_render_is_a_gauge(self):
        gauge = Gauge("t_gauge", "help")
        gauge.set(1.5)
        lines = gauge.render()
        assert "# TYPE t_gauge gauge" in lines
        assert "t_gauge 1.5" in lines


class TestSlidingWindow:
    def _window(self, clock, window_s=10.0):
        return SlidingWindow("t_seconds", "help", window_s=window_s, clock=clock)

    def test_observations_expire_past_the_window(self):
        now = {"t": 0.0}
        window = self._window(lambda: now["t"])
        window.observe(1.0)
        now["t"] = 5.0
        window.observe(2.0)
        assert window.values() == [1.0, 2.0]
        now["t"] = 10.5  # first sample (t=0) is now past the 10 s horizon
        assert window.values() == [2.0]
        assert window.count == 1

    def test_rate_is_count_over_window(self):
        now = {"t": 0.0}
        window = self._window(lambda: now["t"])
        for _ in range(5):
            window.observe(1.0)
        assert window.rate() == pytest.approx(0.5)

    def test_nearest_rank_percentiles(self):
        now = {"t": 0.0}
        window = self._window(lambda: now["t"])
        for value in (10.0, 20.0, 30.0, 40.0):
            window.observe(value)
        assert window.percentile(0.5) == 20.0
        assert window.percentile(0.99) == 40.0
        assert window.percentile(0.0) == 10.0

    def test_empty_window_is_nan(self):
        import math

        window = self._window(lambda: 0.0)
        assert math.isnan(window.percentile(0.95))
        assert 'quantile="0.95"} NaN' in "\n".join(window.render())

    def test_memory_is_bounded(self):
        window = SlidingWindow(
            "t_seconds", "help", window_s=1e9, max_samples=4, clock=lambda: 0.0
        )
        for value in range(10):
            window.observe(float(value))
        assert window.values() == [6.0, 7.0, 8.0, 9.0]

    def test_render_is_a_summary(self):
        now = {"t": 0.0}
        window = self._window(lambda: now["t"])
        window.observe(0.25)
        text = "\n".join(window.render())
        assert "# TYPE t_seconds summary" in text
        assert 'quantile="0.5"} 0.25' in text
        assert "t_seconds_count 1" in text


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        assert registry.counter("x_total", "other help") is a

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.histogram("x_total", "help")

    def test_exposition_format_is_valid(self):
        """Every non-comment line must parse as `name{labels}? value`."""
        metrics.QUERIES.inc(3)
        metrics.QUERY_SECONDS.observe(0.25)
        metrics.SCHEDULER_INFLIGHT.set(2)
        metrics.WINDOW_QUERY_LATENCY.observe(0.01)
        text = metrics.render_prometheus()
        assert text.endswith("\n")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{(le|quantile)=\"[^\"]+\"\})? "
            r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
        )
        seen_types = {}
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "histogram", "gauge", "summary")
                seen_types[name] = kind
            else:
                assert sample.match(line), f"bad exposition line: {line!r}"
        assert seen_types["repro_queries_total"] == "counter"
        assert seen_types["repro_query_seconds"] == "histogram"
        assert seen_types["repro_scheduler_inflight"] == "gauge"
        assert seen_types["repro_window_query_latency_seconds"] == "summary"
        assert "repro_queries_total 3" in text
        assert "repro_scheduler_inflight 2" in text

    def test_standard_metrics_present_before_any_query(self):
        text = metrics.render_prometheus()
        for name in (
            "repro_queries_total",
            "repro_query_seconds",
            "repro_page_decode_seconds",
            "repro_pages_salvaged_total",
            "repro_io_retry_attempts_total",
            "repro_iosim_units_total",
        ):
            assert name in text


class TestEnableDisable:
    def test_disabled_mutations_are_dropped(self):
        metrics.disable()
        assert not metrics.enabled()
        metrics.QUERIES.inc()
        metrics.QUERY_SECONDS.observe(1.0)
        metrics.enable()
        assert metrics.QUERIES.value == 0
        assert metrics.QUERY_SECONDS.count == 0

    def test_query_path_records_only_when_enabled(self):
        data = generate_orders(400, seed=3)
        table = load_table(data, Layout.COLUMN)
        query = ScanQuery("ORDERS", select=("O_ORDERKEY",))

        metrics.disable()
        run_scan(table, query)
        metrics.enable()
        assert metrics.QUERIES.value == 0

        run_scan(table, query)
        assert metrics.QUERIES.value == 1
        assert metrics.QUERY_SECONDS.count == 1
        assert metrics.PAGE_DECODE_SECONDS.count > 0


class TestPageDecodeSeconds:
    """Every page a query decodes is one count of
    ``repro_page_decode_seconds``, observed once when the query ends —
    serial, over partitions, or scheduled over a shared stream."""

    @staticmethod
    def _observations(monkeypatch) -> list[int]:
        seen = []
        observe = Histogram.observe

        def counting(histogram, value, times=1):
            if histogram is metrics.PAGE_DECODE_SECONDS:
                seen.append(times)
            observe(histogram, value, times)

        monkeypatch.setattr(Histogram, "observe", counting)
        return seen

    @staticmethod
    def _workload(layout):
        data = generate_orders(6_000, seed=3)
        predicate = predicate_for_selectivity("O_TOTALPRICE", data.columns["O_TOTALPRICE"], 0.3)
        query = ScanQuery("ORDERS", select=("O_TOTALPRICE", "O_ORDERKEY"), predicates=(predicate,))
        return load_table(data, layout), query

    @pytest.mark.parametrize("layout", [Layout.ROW, Layout.COLUMN], ids=["row", "column"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_query_observes_its_pages_once(self, monkeypatch, layout, workers):
        from repro.engine.parallel import parallel_query

        from repro.cpusim.calibration import DEFAULT_CALIBRATION
        from repro.engine.context import ExecutionContext

        table, query = self._workload(layout)
        seen = self._observations(monkeypatch)
        # A window per I/O unit: the query reads several.
        context = ExecutionContext(
            calibration=DEFAULT_CALIBRATION.with_overrides(default_prefetch_depth=1)
        )
        if workers == 1:
            result = run_scan(table, query, context)
        else:
            result = parallel_query(table, query, workers=workers, context=context)
        assert result.events.pages_touched > 1
        assert seen == [result.events.pages_touched]
        assert metrics.PAGE_DECODE_SECONDS.count == result.events.pages_touched

    def test_a_scheduled_batch_observes_what_its_streams_decoded(self, monkeypatch):
        from repro.engine.scheduler import Scheduler

        table, query = self._workload(Layout.COLUMN)
        seen = self._observations(monkeypatch)
        scheduler = Scheduler(max_inflight=4, share_scans=True)
        for _ in range(3):
            scheduler.submit(table, query)
        scheduler.run()
        # Riders that board together finish together: the first to
        # finish observes the whole pass.
        assert seen == [scheduler.manager.io_pages()] == [metrics.PAGE_DECODE_SECONDS.count]


class TestRetryMetrics:
    def test_transient_retries_are_counted(self):
        failures = [TransientIOError("flaky"), TransientIOError("flaky")]

        def flaky():
            if failures:
                raise failures.pop()
            return "ok"

        policy = RetryPolicy(max_attempts=4, sleep=lambda _s: None, seed=1)
        assert retry_io(flaky, policy) == "ok"
        assert metrics.RETRY_ATTEMPTS.value == 2
        assert metrics.RETRY_BACKOFF_SECONDS.value > 0
        assert metrics.RETRY_EXHAUSTED.value == 0

    def test_exhausted_retries_are_counted(self):
        def always_fails():
            raise TransientIOError("dead")

        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None, seed=1)
        with pytest.raises(TransientIOError):
            retry_io(always_fails, policy)
        assert metrics.RETRY_ATTEMPTS.value == 2
        assert metrics.RETRY_EXHAUSTED.value == 1


class TestExpositionCli:
    def test_main_prints_live_exposition(self, capsys):
        assert metrics.main(["--rows", "300"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in out
        match = re.search(r"^repro_queries_total (\d+)$", out, re.MULTILINE)
        assert match and int(match.group(1)) >= 2  # demo runs two queries

    def test_main_rows_zero_skips_workload(self, capsys):
        assert metrics.main(["--rows", "0"]) == 0
        out = capsys.readouterr().out
        assert "repro_queries_total 0" in out

    def test_once_without_serve_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            metrics.main(["--rows", "0", "--once"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestServe:
    """The --serve endpoint must shut down cleanly (no traceback, exit 0)."""

    def _spawn(self, *extra):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.obs.metrics", "--rows", "0",
             "--serve", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )

    def _wait_for_port(self, process) -> int:
        # The banner is printed with flush=True right after binding.
        line = process.stdout.readline()
        match = re.search(r"on :(\d+)/metrics", line)
        assert match, f"no listening banner, got {line!r}"
        return int(match.group(1))

    def test_sigint_exits_zero_without_traceback(self):
        import signal

        process = self._spawn()
        try:
            self._wait_for_port(process)
            process.send_signal(signal.SIGINT)
            out, err = process.communicate(timeout=30)
        finally:
            process.kill()
        assert process.returncode == 0, err
        assert "Traceback" not in err
        assert "metrics server stopped" in out

    def test_once_serves_one_scrape_and_exits(self):
        import urllib.request

        process = self._spawn("--once")
        try:
            port = self._wait_for_port(process)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as response:
                body = response.read().decode()
            out, err = process.communicate(timeout=30)
        finally:
            process.kill()
        assert process.returncode == 0, err
        assert "# TYPE repro_queries_total counter" in body
        assert "metrics server stopped" in out


class TestProvenance:
    def test_stamp_has_the_comparability_keys(self):
        stamp = provenance()
        for key in (
            "git_sha",
            "timestamp_utc",
            "python",
            "numpy",
            "platform",
            "calibration_fingerprint",
        ):
            assert stamp[key], key
        assert re.match(r"^[0-9a-f]{12}$", stamp["calibration_fingerprint"])

    def test_git_sha_resolves_in_this_repo(self):
        sha = git_sha()
        assert sha == "unknown" or re.match(r"^[0-9a-f]{40}$", sha)

    def test_fingerprint_is_stable_and_sensitive(self):
        base = Calibration()
        assert base.fingerprint() == Calibration().fingerprint()
        tweaked = base.with_overrides(num_disks=base.num_disks + 1)
        assert tweaked.fingerprint() != base.fingerprint()

    def test_stamp_uses_the_given_calibration(self):
        tweaked = Calibration().with_overrides(num_disks=7)
        assert (
            provenance(tweaked)["calibration_fingerprint"]
            == tweaked.fingerprint()
        )


class TestFigureJson:
    def test_experiments_json_is_provenance_stamped(self, tmp_path, capsys, experiment_runs):
        from repro.experiments.__main__ import main

        assert main(["--json", str(tmp_path), "figure-2"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "figure-2.json").read_text())
        # Figure 2 is drawn from the model alone, so the CLI's rows do
        # not move it off the session's run.
        output = experiment_runs["figure-2"]
        assert payload["name"] == output.name
        assert payload["experiment"] == "figure-2"
        assert [table["title"] for table in payload["tables"]] == [
            table.title for table in output.tables
        ]
        assert payload["tables"][0]["headers"] == list(output.tables[0].headers)
        assert len(payload["tables"][0]["rows"]) == len(output.tables[0].rows)
        assert payload["series"] == output.series
        # provenance() may append "-dirty" to the commit of record
        assert payload["provenance"]["git_sha"].startswith(git_sha())
        assert payload["provenance"]["calibration_fingerprint"] == Calibration().fingerprint()
