"""Process-wide metrics: counters and log-scale latency histograms.

A deliberately small Prometheus-shaped metrics layer: named counters
and histograms registered in a process-global :data:`REGISTRY`, with
text-format exposition (`the format Prometheus scrapes
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_).

A series declared with ``on="layer.event"`` (and at most one ``field=``
of the event's detail) is a *view* of that lifecycle event:
:func:`repro.obs.recorder.record` updates it, no producer does.  Bare
series are the ones measured per page, which would flood the event
ring, the simulator's, added once per run, and the
``WRITE_STAGED_BYTES`` level.
:func:`disable` turns every update into an early return for true no-op
runs (the overhead gate in CI measures the engine with the whole obs
layer quiescent).

Beyond cumulative counters and histograms, the registry carries two
workload-level shapes added for the scheduler dashboard:
:class:`Gauge` (a settable level: in-flight queries, sharing hit
ratio) and :class:`SlidingWindow` (recent observations pruned to a
time window, exposed as a Prometheus *summary* with windowed
p50/p95/p99 quantiles and an event rate — the "qps over the last
minute" view cumulative histograms cannot give).

**Concurrency note.**  The registry is process-global: the cooperative
scheduler interleaves many queries in one thread and a parallel query
runs its partitions on pool threads, so every series here is a
*workload sum* by construction — counters from co-running queries
merge, which is the intent.  Every update is a read-modify-write
(a histogram's three), so each takes the module's one lock: no
increment is lost between two threads.  Per-query attribution
never goes through the registry: it lives on each query's own
``ExecutionContext.events`` and per-query ``SpanTracer`` (see
:mod:`repro.obs.trace`), so interleaving cannot cross-attribute.

Exposition::

    python -m repro.obs.metrics                 # demo workload, print text
    python -m repro.obs.metrics --serve 9100    # serve /metrics over HTTP
    python -m repro.obs.metrics --serve 0 --once   # one scrape, then exit
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SlidingWindow",
    "WindowRate",
    "enabled",
    "enable",
    "disable",
    "exponential_buckets",
    "render_prometheus",
    "main",
]

#: Module-global switch; checked by every mutation, so a disabled
#: registry costs one attribute load + branch per hook site.
_enabled = True

#: Held by every update of every series (see the concurrency note).
_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether metric mutations are currently recorded."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    """No-op mode: every ``inc``/``observe`` returns immediately."""
    global _enabled
    _enabled = False


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid Prometheus metric name: {name!r}")
    return name


def exponential_buckets(start: float, factor: float, count: int) -> list[float]:
    """``count`` log-scale bucket bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1: {start}, {factor}, {count}"
        )
    return [start * factor**i for i in range(count)]


#: Default latency buckets: 1 µs → ~67 s in ×2 steps.
LATENCY_BUCKETS = exponential_buckets(1e-6, 2.0, 27)


def _fmt(value: float) -> str:
    """A float in Prometheus sample syntax (integers without the dot)."""
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class _Scalar:
    """One named number: what a counter and a gauge share."""

    __slots__ = ("name", "help", "_value")
    TYPE = ""

    def __init__(self, name: str, help: str):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def render(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.TYPE}",
            f"{self.name} {_fmt(self.value)}",
        ]


class Counter(_Scalar):
    """A monotonically increasing value."""

    __slots__ = ()
    TYPE = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled or not amount:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        with _LOCK:
            self._value += amount

    apply = inc  # what a bound event does to the series


class Histogram:
    """A cumulative histogram over fixed (log-scale) bucket bounds."""

    __slots__ = ("name", "help", "bounds", "_counts", "sum", "count")

    def __init__(self, name: str, help: str, buckets: list[float] | None = None):
        self.name = _check_name(name)
        self.help = help
        self.bounds = sorted(buckets if buckets is not None else LATENCY_BUCKETS)
        if not self.bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.reset()

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` (``times`` observations of it)."""
        if not _enabled:
            return
        # `le` semantics: the first bound >= value owns the observation.
        slot = bisect.bisect_left(self.bounds, value)
        with _LOCK:
            self._counts[slot] += times
            self.sum += value * times
            self.count += times

    apply = observe

    def reset(self) -> None:
        # One slot per finite bound plus the implicit +Inf overflow slot.
        self._counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} histogram",
        ]
        for bound, running in self.bucket_counts():
            le = "+Inf" if bound == float("inf") else _fmt(bound)
            lines.append(f'{self.name}_bucket{{le="{le}"}} {running}')
        lines.append(f"{self.name}_sum {_fmt(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class Gauge(_Scalar):
    """A level that can go up and down (in-flight queries, hit ratio)."""

    __slots__ = ()
    TYPE = "gauge"

    def set(self, value: float) -> None:
        if not _enabled:
            return
        self._value = float(value)

    apply = set

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        with _LOCK:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class SlidingWindow:
    """Observations kept for ``window_s`` seconds, then pruned.

    Where :class:`Histogram` accumulates forever (the right shape for
    cumulative scrape-and-diff monitoring), a sliding window answers
    "what are latency percentiles and qps *right now*" for the live
    dashboard.  Rendered as a Prometheus summary: windowed
    p50/p95/p99 ``quantile`` samples plus ``_sum``/``_count`` over the
    window (``NaN`` quantiles while empty, per the exposition spec).

    ``clock`` is injectable for deterministic tests; memory is bounded
    by ``max_samples`` (oldest evicted first) regardless of rate.
    """

    __slots__ = ("name", "help", "window_s", "quantiles", "_samples", "_clock")

    def __init__(
        self,
        name: str,
        help: str,
        window_s: float = 60.0,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
        max_samples: int = 8192,
        clock=time.monotonic,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0: {window_s}")
        self.name = _check_name(name)
        self.help = help
        self.window_s = window_s
        self.quantiles = quantiles
        self._samples: deque[tuple[float, float]] = deque(maxlen=max_samples)
        self._clock = clock

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        self._samples.append((self._clock(), float(value)))

    apply = observe

    def _prune(self) -> None:
        horizon = self._clock() - self.window_s
        with _LOCK:
            while self._samples and self._samples[0][0] < horizon:
                self._samples.popleft()

    def values(self) -> list[float]:
        """In-window observations, oldest first."""
        self._prune()
        return [value for _, value in self._samples]

    @property
    def count(self) -> int:
        self._prune()
        return len(self._samples)

    def rate(self) -> float:
        """Events per second over the window (qps when fed completions)."""
        return self.count / self.window_s

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of in-window values; NaN when empty.

        ``q`` in [0, 1].
        """
        values = sorted(self.values())
        if not values:
            return math.nan
        rank = max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))
        return values[rank]

    def reset(self) -> None:
        self._samples.clear()

    def render(self) -> list[str]:
        values = self.values()
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} summary",
        ]
        for q in self.quantiles:
            lines.append(
                f'{self.name}{{quantile="{_fmt(q)}"}} {_fmt(self.percentile(q))}'
            )
        lines.append(f"{self.name}_sum {_fmt(sum(values))}")
        lines.append(f"{self.name}_count {len(values)}")
        return lines


class WindowRate(Gauge):
    """A window's event rate as a gauge, computed when it is read (so it
    falls to 0 once the workload idles)."""

    __slots__ = ("_window",)

    def __init__(self, name: str, help: str, window: SlidingWindow):
        super().__init__(name, help)
        self._window = window

    @property
    def value(self) -> float:
        return self._window.rate()


class MetricsRegistry:
    """Named metrics, the events they are views of, and the exposition.

    ``on`` binds a series to one event kind (or a tuple of kinds),
    ``field`` to one key of its detail: a counter adds the field (1
    without one), a histogram or window observes it, a gauge is set to it.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram | SlidingWindow] = {}
        #: Event kind → ``(series, detail field or None)`` per bound series.
        self.bindings: dict[str, list[tuple]] = {}

    def counter(self, name: str, help: str, on=None, field=None) -> Counter:
        """Get or create a counter (idempotent per name)."""
        return self._register(Counter(name, help), on, field)

    def gauge(self, name: str, help: str, on=None, field=None) -> Gauge:
        """Get or create a gauge (idempotent per name)."""
        return self._register(Gauge(name, help), on, field)

    def histogram(
        self, name: str, help: str, buckets: list[float] | None = None, on=None, field=None
    ) -> Histogram:
        """Get or create a histogram (idempotent per name)."""
        return self._register(Histogram(name, help, buckets), on, field)

    def window(
        self, name: str, help: str, window_s: float = 60.0, on=None, field=None
    ) -> SlidingWindow:
        """Get or create a sliding-window summary (idempotent per name)."""
        return self._register(SlidingWindow(name, help, window_s), on, field)

    def _register(self, metric, on=None, field=None):
        held = self._metrics.setdefault(metric.name, metric)
        if not isinstance(held, type(metric)):
            raise ValueError(
                f"metric {metric.name!r} already registered as {type(held).__name__}"
            )
        if held is metric:
            for kind in (on,) if isinstance(on, str) else on or ():
                self.bindings.setdefault(kind, []).append((metric, field))
        return held

    def apply(self, kind: str, detail: dict) -> None:
        """Update every series bound to ``kind`` from one event's detail."""
        if not _enabled:
            return
        for metric, field in self.bindings.get(kind, ()):
            metric.apply(1 if field is None else detail[field])

    def render(self) -> str:
        """Prometheus text exposition format, newline-terminated."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumented subsystem writes to.
REGISTRY = MetricsRegistry()


def render_prometheus() -> str:
    """Exposition text for the global registry."""
    return REGISTRY.render()


# --- the engine's standard metrics ---------------------------------------
# Registered at import so exposition always shows the full set (a scrape
# before the first query still sees the series at zero).

QUERIES = REGISTRY.counter(
    "repro_queries_total",
    "Scan queries executed by the engine.",
    on=("query.done", "scheduler.done"),
)
QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "Wall-clock latency of one query execution.",
    on=("query.done", "scheduler.done"), field="latency_s",
)
PAGE_DECODE_SECONDS = REGISTRY.histogram(
    "repro_page_decode_seconds",
    "Wall-clock time to read+decode one page, each query's pages observed once at their"
    " mean; for a row or PAX scan, its read step per page: the predicate attributes'"
    " decode, the filter and the survivors' gather.",
)
PAGES_SALVAGED = REGISTRY.counter(
    "repro_pages_salvaged_total",
    "Corrupt pages skipped by salvage-mode scans instead of aborting.",
    on=("query.done", "query.failed", "scheduler.done", "scheduler.failed"), field="salvaged",
)
RETRY_ATTEMPTS = REGISTRY.counter(
    "repro_io_retry_attempts_total",
    "Transient-read retries issued by the storage retry policy.",
    on="storage.retry",
)
RETRY_BACKOFF_SECONDS = REGISTRY.counter(
    "repro_io_retry_backoff_seconds_total",
    "Total backoff delay scheduled before storage retries.",
    on="storage.retry", field="delay_s",
)
RETRY_EXHAUSTED = REGISTRY.counter(
    "repro_io_retry_exhausted_total",
    "Reads that failed even after exhausting the retry budget.",
    on="storage.retry_exhausted",
)
IO_UNITS = REGISTRY.counter(
    "repro_iosim_units_total", "I/O units served by the disk-array simulator."
)
IO_BYTES = REGISTRY.counter(
    "repro_iosim_bytes_total", "Bytes transferred by the disk-array simulator."
)
IO_SEEKS = REGISTRY.counter(
    "repro_iosim_seeks_total",
    "Simulated head repositionings (non-contiguous I/O units).",
)
GOVERNANCE_TIMEOUTS = REGISTRY.counter(
    "repro_governance_timeouts_total",
    "Queries aborted because their wall-clock deadline passed.",
    on="governance.timeout",
)
GOVERNANCE_CANCELLATIONS = REGISTRY.counter(
    "repro_governance_cancellations_total",
    "Queries aborted by a tripped cancellation token.",
    on="governance.cancel",
)
GOVERNANCE_BUDGET_ABORTS = REGISTRY.counter(
    "repro_governance_budget_aborts_total",
    "Spill-free aborts after a memory budget was exceeded.",
    on="governance.budget_abort",
)
GOVERNANCE_NARROW_RETRIES = REGISTRY.counter(
    "repro_governance_narrow_retries_total",
    "Reduced-width retries that kept a working set inside its budget.",
    on="governance.narrow_retry",
)
GOVERNANCE_BREAKER_TRIPS = REGISTRY.counter(
    "repro_governance_breaker_trips_total",
    "Circuit-breaker openings for repeatedly failing partitions.",
    on="governance.breaker_trip",
)
GOVERNANCE_PARTITION_RETRIES = REGISTRY.counter(
    "repro_governance_partition_retries_total",
    "Single-partition retries by the supervisor.",
    on="parallel.retry",
)
GOVERNANCE_DEGRADATIONS = REGISTRY.counter(
    "repro_governance_degradations_total",
    "Worker-count degradation steps taken by the supervision ladder.",
    on="parallel.degrade",
)
GOVERNANCE_STALLS = REGISTRY.counter(
    "repro_governance_stalls_total",
    "Partitions declared stalled after missing their heartbeat window.",
    on="parallel.stall",
)
PARALLEL_DISPATCH_SECONDS = REGISTRY.histogram(
    "repro_parallel_dispatch_seconds",
    "Submit to last partition output of one pool-dispatched parallel query.",
    on="parallel.dispatch", field="seconds",
)
SCHEDULER_SUBMITTED = REGISTRY.counter(
    "repro_scheduler_submitted_total",
    "Queries submitted to the concurrent scheduler.",
    on="scheduler.submit",
)
SCHEDULER_COMPLETED = REGISTRY.counter(
    "repro_scheduler_completed_total",
    "Scheduled queries that completed with a result.",
    on="scheduler.done",
)
SCHEDULER_FAILED = REGISTRY.counter(
    "repro_scheduler_failed_total",
    "Scheduled queries that finished with a typed error.",
    on="scheduler.failed",
)
SCHEDULER_QUEUE_DEPTH = REGISTRY.histogram(
    "repro_scheduler_queue_depth",
    "Admission-queue depth observed at each submit.",
    buckets=exponential_buckets(1, 2.0, 11),
    on="scheduler.submit", field="queue_depth",
)
SCHEDULER_ADMISSION_WAIT = REGISTRY.histogram(
    "repro_scheduler_admission_wait_seconds",
    "Queue time between submit and admission (counted in the deadline).",
    on="scheduler.admit", field="queue_s",
)
SCHEDULER_SHARE_HITS = REGISTRY.counter(
    "repro_scheduler_share_hits_total",
    "Queries that attached to an in-progress shared scan.",
    on="share.attach", field="hit",
)
SCHEDULER_SHARE_MISSES = REGISTRY.counter(
    "repro_scheduler_share_misses_total",
    "Queries that had to start a fresh scan stream.",
    on="share.attach", field="miss",
)
SCHEDULER_SHARED_PAGES = REGISTRY.counter(
    "repro_scheduler_shared_pages_total",
    "Pages read by shared scan streams (each counted once per pass).",
)
SCHEDULER_INFLIGHT = REGISTRY.gauge(
    "repro_scheduler_inflight",
    "Queries currently admitted and running in the scheduler.",
    on=("scheduler.admit", "scheduler.done", "scheduler.failed"), field="inflight",
)
SHARE_HIT_RATIO = REGISTRY.gauge(
    "repro_scheduler_share_hit_ratio",
    "Fraction of scheduled scans that attached to an in-progress stream.",
    on="share.attach", field="hit_ratio",
)
WINDOW_QUERY_LATENCY = REGISTRY.window(
    "repro_window_query_latency_seconds",
    "Per-query latency over the trailing 60 s window (summary quantiles).",
    window_s=60.0,
    on=("scheduler.done", "scheduler.failed"), field="latency_s",
)
WINDOW_QPS = REGISTRY._register(
    WindowRate(
        "repro_window_qps",
        "Query completions per second over the trailing 60 s window.",
        WINDOW_QUERY_LATENCY,
    )
)
WRITE_STAGED_ROWS = REGISTRY.counter(
    "repro_write_staged_rows_total",
    "Rows staged into write-optimized stores via insert.",
    on="write.stage", field="rows",
)
WRITE_DELETED_ROWS = REGISTRY.counter(
    "repro_write_deleted_rows_total",
    "Rows newly marked in delete vectors (idempotent re-deletes excluded).",
    on="write.delete", field="newly",
)
WRITE_STAGED_BYTES = REGISTRY.gauge(
    "repro_write_staged_bytes",
    "Uncompressed bytes currently staged across all write stores.",
)
WRITE_HYBRID_QUERIES = REGISTRY.counter(
    "repro_write_hybrid_queries_total",
    "Queries answered through the hybrid base+delta overlay.",
    on="write.hybrid",
)
WRITE_MERGES = REGISTRY.counter(
    "repro_write_merges_total",
    "Write-store merges committed into the read store.",
    on="write.merge.commit",
)
WRITE_MERGE_ABORTS = REGISTRY.counter(
    "repro_write_merge_aborts_total",
    "Merges aborted (crash injection, governance, or I/O failure).",
    on="write.merge.abort",
)
WRITE_MERGE_SECONDS = REGISTRY.histogram(
    "repro_write_merge_seconds",
    "Wall-clock time of one write-store merge (rebuild through commit).",
    on="write.merge.commit", field="seconds",
)
WRITE_MERGED_ROWS = REGISTRY.counter(
    "repro_write_merged_rows_total",
    "Staged rows drained into the read store by committed merges.",
    on="write.merge.commit", field="staged",
)
WRITE_RECLAIMED_ROWS = REGISTRY.counter(
    "repro_write_reclaimed_rows_total",
    "Deleted rows physically reclaimed by committed merges.",
    on="write.merge.commit", field="reclaimed",
)


# --- exposition CLI -------------------------------------------------------


def _demo_workload(rows: int) -> None:
    """A few queries so the exposition shows live numbers."""
    from repro.data.tpch import generate_orders
    from repro.database import Database

    db = Database()
    db.create_table(generate_orders(rows, seed=11))
    predicate = db.predicate("ORDERS", "O_TOTALPRICE", 0.25)
    db.query("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))
    db.query(
        "ORDERS",
        select=("O_ORDERDATE", "O_TOTALPRICE"),
        predicates=(predicate,),
    )


def _serve(port: int, once: bool = False) -> int:
    """Serve the exposition until SIGINT/SIGTERM (or one scrape).

    Shutdown is cooperative: the signal handlers only set a flag, and
    the accept loop polls it every ``server.timeout`` seconds, so a
    ctrl-C mid-scrape finishes the response, closes the listening
    socket (released immediately — no ``Address already in use`` on
    restart), and exits 0 with no traceback.  ``port`` 0 binds an
    OS-assigned port, printed before the first scrape.  With ``once``
    the server answers exactly one request and exits (for scripts that
    want a real HTTP scrape without managing a daemon).
    """
    import http.server
    import signal

    stop = {"flag": False}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = render_prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            if once:
                stop["flag"] = True

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("", port), Handler)
    server.timeout = 0.2

    def _on_signal(signum, frame):
        stop["flag"] = True

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    bound = server.server_address[1]
    print(
        f"serving Prometheus metrics on :{bound}/metrics "
        f"({'one scrape' if once else 'SIGINT/SIGTERM to stop'})",
        flush=True,
    )
    try:
        while not stop["flag"]:
            # handle_request honours server.timeout, so the stop flag
            # is observed within 200 ms of the signal.
            server.handle_request()
    finally:
        server.server_close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("metrics server stopped", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="Prometheus text-format exposition of the engine metrics.",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=2_000,
        help="rows of the demo workload run before exposition (0 to skip)",
    )
    parser.add_argument(
        "--serve",
        type=int,
        metavar="PORT",
        default=None,
        help="serve the exposition over HTTP instead of printing once "
        "(0 binds an OS-assigned port, printed at startup)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="with --serve: answer exactly one scrape, then exit",
    )
    args = parser.parse_args(argv)
    if args.once and args.serve is None:
        parser.error("--once requires --serve")
    if args.rows:
        _demo_workload(args.rows)
    if args.serve is not None:
        return _serve(args.serve, once=args.once)
    print(render_prometheus(), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    # Under ``python -m repro.obs.metrics`` runpy executes this file as a
    # *second* module instance (``__main__``) with its own REGISTRY; the
    # engine's hooks write to the instance imported via ``repro.obs``.
    # Delegate to that canonical instance so the exposition shows the
    # demo workload's live numbers instead of a parallel zeroed registry.
    from repro.obs import metrics as _canonical

    raise SystemExit(_canonical.main())
