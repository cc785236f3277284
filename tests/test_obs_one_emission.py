"""One lifecycle fact, one emission.

``repro.obs.recorder.record`` is the only call a producer makes for a
lifecycle fact; every series declared with ``on=`` in
:mod:`repro.obs.metrics` is a view of those events.  Pinned here:

* the **invariant** — after a seeded batch through every producer, each
  bound series equals the count (or the sum of its ``field``) over the
  ring's events of its kind(s);
* the **structure** — outside ``src/repro/obs/`` nobody mutates a bound
  series, and the bare (per-page / per-unit / level) series are exactly
  the listed ones;
* the two flags — a disabled registry counts nothing while the ring
  still records, and the other way round;
* ``repro_queries_total`` counts a finished query once on every executor;
* ``repro_window_qps`` is read off the window when scraped;
* DESIGN §13's kind → series table is the one the bindings generate.
"""

from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest

import repro
from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.blocks import Block
from repro.engine.context import ExecutionContext
from repro.engine.executor import run_scan
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    GovernedAccumulator,
    QueryContext,
    SupervisionPolicy,
    block_nbytes,
)
from repro.engine.parallel import parallel_query, shutdown_pools
from repro.engine.query import ScanQuery
from repro.engine.scheduler import Scheduler, WorkloadQuery
from repro.errors import (
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
    TransientIOError,
)
from repro.obs import metrics
from repro.obs import recorder as flight
from repro.obs.metrics import Counter, Gauge, Histogram, SlidingWindow, WindowRate
from repro.obs.recorder import FlightRecorder
from repro.storage.layout import Layout
from repro.storage.loader import BulkLoader, load_table
from repro.storage.retry import RetryPolicy, retry_io
from tests.conftest import one_unit_stream_windows, zero_metrics

ROWS = 1_200
QUERY = ScanQuery("ORDERS", select=("O_ORDERKEY", "O_TOTALPRICE"))

#: The series no event feeds: measured per page, per simulated I/O unit,
#: or kept as a level — events at that rate would flood the ring.
BARE = {
    "PAGE_DECODE_SECONDS",
    "PAGES_SALVAGED",
    "SCHEDULER_SHARED_PAGES",
    "IO_UNITS",
    "IO_BYTES",
    "IO_SEEKS",
    "WRITE_STAGED_BYTES",
    "WINDOW_QPS",  # derived from WINDOW_QUERY_LATENCY when read
}


def _series() -> dict:
    """Module constant name → registered series."""
    kinds = (Counter, Gauge, Histogram, SlidingWindow)
    return {
        name: value for name, value in vars(metrics).items() if isinstance(value, kinds)
    }


def _bound() -> dict:
    """Series object id → ``[(kind, field)]`` from the registry's bindings."""
    out: dict = {}
    for kind, pairs in metrics.REGISTRY.bindings.items():
        for series, field in pairs:
            out.setdefault(id(series), []).append((kind, field))
    return out


@pytest.fixture
def telemetry(monkeypatch):
    """Both flags on, zeroed series, and a ring large enough not to evict."""
    metrics.enable()
    zero_metrics()
    flight.enable()
    monkeypatch.setattr(flight, "RECORDER", FlightRecorder(capacity=1 << 16))
    yield flight.RECORDER
    zero_metrics()


# --- the batch ----------------------------------------------------------------


def _drive_every_producer(monkeypatch) -> None:
    data = generate_orders(ROWS, seed=22)
    table = load_table(data, Layout.COLUMN, page_size=512)  # many segments

    # Serial executor.
    run_scan(table, QUERY)

    # Scheduler: healthy riders on one wrapping stream, a timeout in the
    # queue, a cancel, a budget abort.  A timeslice pumps a window, so
    # the stream's table is two one-unit windows long: 40 row pages.
    one_unit_stream_windows(monkeypatch)
    table = load_table(generate_orders(5_000, seed=22), Layout.ROW)
    scheduler = Scheduler(max_inflight=4, share_scans=True)
    first = scheduler.submit(table, QUERY, label="rider 0")
    scheduler.poll()
    assert scheduler.manager.live_streams(), "rider 0 must still be mid-pass"
    late = scheduler.submit(table, QUERY, label="rider 1 (mid-flight)")
    doomed = scheduler.submit(table, QUERY, timeout=1e-9, label="timeout")
    token = CancellationToken()
    token.cancel("test")
    cancelled = scheduler.submit(table, QUERY, cancellation=token, label="cancel")
    broke = scheduler.submit(
        table,
        QUERY,
        memory_budget=1,
        on_tick=lambda governance: governance.budget_abort("test spike", 64),
        label="budget",
    )
    scheduler.run()
    assert first.error is None and late.error is None
    assert isinstance(doomed.error, QueryTimeout)
    assert isinstance(cancelled.error, QueryCancelled)
    assert isinstance(broke.error, MemoryBudgetExceeded)

    # Storage retry: two transient failures then success; then exhaustion.
    policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None, seed=1)
    failures = [TransientIOError("flaky"), TransientIOError("flaky")]

    def flaky(always: bool):
        if always or failures:
            raise failures.pop() if failures else TransientIOError("down")
        return "ok"

    assert retry_io(flaky, policy, False) == "ok"
    with pytest.raises(TransientIOError):
        retry_io(flaky, policy, True)

    # Write path: insert, delete, a dirty (hybrid) read, a merge, and an
    # aborted merge.
    db = Database()
    db.create_table(data)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert_many("ORDERS", [row, row, row])
    db.delete("ORDERS", positions=[1, 2])
    db.query("ORDERS", select=QUERY.select)
    db.merge("ORDERS")
    db.insert("ORDERS", row)

    def broken_load(self, *args, **kwargs):
        raise RuntimeError("install failed")

    with monkeypatch.context() as patch:
        patch.setattr(BulkLoader, "load", broken_load)
        with pytest.raises(RuntimeError):
            db.merge("ORDERS")

    # Parallel executor: a clean fan-out, then a crashed partition twice
    # over (retry, breaker trip), then a stalled one (stall, degrade).
    try:
        parallel_query(table, QUERY, workers=2, partitions=2)
        breaker = CircuitBreaker()
        policy = SupervisionPolicy(stall_timeout=0.3, poll_interval=0.02)
        for _ in range(2):
            parallel_query(
                table,
                QUERY,
                workers=2,
                partitions=2,
                context=ExecutionContext(governance=QueryContext.start(timeout=30)),
                policy=policy,
                breaker=breaker,
                inject_crash=1,
            )
        parallel_query(
            table,
            QUERY,
            workers=2,
            partitions=2,
            context=ExecutionContext(governance=QueryContext.start(timeout=30)),
            policy=policy,
            inject_stall=(0, 1.5),
        )
    finally:
        shutdown_pools()

    # Reduced-width retry: the second block only fits once both are narrowed.
    def block(n: int) -> Block:
        values = (np.arange(n) % 100).astype(np.int64)
        return Block(columns={"v": values}, positions=np.arange(n, dtype=np.int64))

    governance = QueryContext.start(memory_budget=block_nbytes(block(500)))
    accumulator = GovernedAccumulator(governance, "test")
    accumulator.add(block(400))
    accumulator.add(block(400))
    assert len(accumulator.finish()) == 800 and governance.narrow_retries == 1


@pytest.fixture(scope="module")
def batch():
    """The seeded batch, driven once: ``(ring, series name → readings)``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        metrics.enable()
        zero_metrics()
        flight.enable()
        ring = FlightRecorder(capacity=1 << 16)
        monkeypatch.setattr(flight, "RECORDER", ring)
        _drive_every_producer(monkeypatch)
        readings = {}
        for name, series in _series().items():
            if isinstance(series, Histogram):
                readings[name] = (series.count, series.sum)
            elif isinstance(series, SlidingWindow):
                readings[name] = series.values()
            else:
                readings[name] = series.value
        zero_metrics()
    return ring, readings


def test_every_bound_series_is_a_view_of_the_ring(batch):
    ring, readings = batch
    assert len(ring) < ring.capacity  # the ring never filled: nothing evicted

    # The batch reached every bound kind: no binding is checked vacuously.
    seen = {event.kind for event in ring.events()}
    assert set(metrics.REGISTRY.bindings) <= seen, (
        set(metrics.REGISTRY.bindings) - seen
    )

    bound = _bound()
    for name, series in _series().items():
        if name in BARE:
            assert id(series) not in bound, name
            continue
        pairs = bound[id(series)]
        events = [
            (event, field)
            for kind, field in pairs
            for event in ring.events()
            if event.kind == kind
        ]
        events.sort(key=lambda pair: pair[0].seq)
        values = [1 if field is None else event.detail[field] for event, field in events]
        if isinstance(series, Counter):
            assert readings[name] == pytest.approx(sum(values)), name
        elif isinstance(series, Histogram):
            assert readings[name] == (len(values), pytest.approx(sum(values))), name
        elif isinstance(series, SlidingWindow):
            assert readings[name] == [float(v) for v in values], name
        else:
            assert readings[name] == float(values[-1]), name


def test_the_batch_leaves_what_the_views_say(batch):
    """Spot values, so the invariant above is not comparing two zeros."""
    ring, readings = batch
    expected = {
        "GOVERNANCE_TIMEOUTS": 1,
        "GOVERNANCE_CANCELLATIONS": 1,
        "GOVERNANCE_BUDGET_ABORTS": 1,
        "GOVERNANCE_NARROW_RETRIES": 1,
        "GOVERNANCE_BREAKER_TRIPS": 1,
        "GOVERNANCE_STALLS": 1,
        "GOVERNANCE_PARTITION_RETRIES": 2,
        "SCHEDULER_SUBMITTED": 5,
        "SCHEDULER_COMPLETED": 2,
        "SCHEDULER_FAILED": 3,
        "SCHEDULER_SHARE_HITS": 1,
        "SCHEDULER_SHARE_MISSES": 1,
        "SHARE_HIT_RATIO": 0.5,
        "SCHEDULER_INFLIGHT": 0,
        "RETRY_ATTEMPTS": 4,
        "RETRY_EXHAUSTED": 1,
        "WRITE_STAGED_ROWS": 4,
        "WRITE_DELETED_ROWS": 2,
        "WRITE_HYBRID_QUERIES": 1,
        "WRITE_MERGES": 1,
        "WRITE_MERGE_ABORTS": 1,
        "WRITE_MERGED_ROWS": 3,
        "WRITE_RECLAIMED_ROWS": 2,
    }
    assert {name: readings[name] for name in expected} == expected
    assert readings["GOVERNANCE_DEGRADATIONS"] >= 1
    assert len(readings["WINDOW_QUERY_LATENCY"]) == 5
    assert readings["PARALLEL_DISPATCH_SECONDS"][0] == 4
    # run_scan, two scheduled riders, four fan-outs, the facade's dirty read.
    assert readings["QUERIES"] == 8
    assert ring.events("share.wrap")
    # Exactly one black box per failure: three scheduled queries, one merge.
    assert len(ring.blackboxes) == 4


# --- the two flags ---------------------------------------------------------------


def test_a_disabled_registry_counts_nothing_and_the_ring_still_records(telemetry):
    metrics.disable()
    try:
        flight.record("scheduler.submit", "q", table="T", queue_depth=3)
    finally:
        metrics.enable()
    assert metrics.SCHEDULER_SUBMITTED.value == 0
    assert metrics.SCHEDULER_QUEUE_DEPTH.count == 0
    assert [e.kind for e in telemetry.events()] == ["scheduler.submit"]


def test_a_disabled_recorder_captures_nothing_and_the_registry_still_counts(telemetry):
    flight.disable()
    try:
        flight.record("scheduler.submit", "q", table="T", queue_depth=3)
        assert flight.blackbox("q", error=QueryTimeout("late")) is None
    finally:
        flight.enable()
    assert len(telemetry) == 0 and not telemetry.blackboxes
    assert metrics.SCHEDULER_SUBMITTED.value == 1
    assert metrics.SCHEDULER_QUEUE_DEPTH.sum == 3


def test_an_unbound_kind_only_reaches_the_ring(telemetry):
    before = metrics.render_prometheus()
    flight.record("scheduler.slice", "q", slice=1)
    assert metrics.render_prometheus() == before
    assert len(telemetry) == 1


# --- repro_queries_total: once per finished query, on every executor ---------------


@pytest.mark.parametrize("executor", ["serial", "workers=2", "submit", "run_workload"])
def test_a_finished_query_is_counted_once(telemetry, executor):
    db = Database()
    db.create_table(generate_orders(600, seed=5))
    select = ("O_ORDERKEY", "O_TOTALPRICE")
    try:
        if executor == "serial":
            db.query("ORDERS", select=select)
        elif executor == "workers=2":
            # Not through the facade: it clamps workers to os.cpu_count().
            for mode, workers in (("parallel", 2), ("inline", 1)):
                info: dict = {}
                parallel_query(
                    db.table("ORDERS"),
                    ScanQuery("ORDERS", select=select),
                    workers=workers,
                    partitions=2,
                    info=info,
                )
                assert info["mode"] == mode
        elif executor == "submit":
            db.submit("ORDERS", select=select).value()
        else:
            db.run_workload([WorkloadQuery("ORDERS", select=select)])
    finally:
        shutdown_pools()
    expected = 2 if executor == "workers=2" else 1
    assert metrics.QUERIES.value == expected
    assert metrics.QUERY_SECONDS.count == expected


def test_a_failed_query_is_not_counted(telemetry):
    db = Database()
    db.create_table(generate_orders(600, seed=5))
    handle = db.submit("ORDERS", select=("O_ORDERKEY",), timeout=1e-9)
    handle.wait()
    assert isinstance(handle.error, QueryTimeout)
    assert metrics.QUERIES.value == 0
    assert metrics.SCHEDULER_FAILED.value == 1


# --- repro_window_qps: read off the window, not set at the last finish --------------


def test_window_qps_falls_to_zero_when_the_workload_idles():
    now = {"t": 1_000.0}
    window = SlidingWindow("t_seconds", "help", window_s=60.0, clock=lambda: now["t"])
    qps = WindowRate("t_qps", "help", window)
    for _ in range(6):
        window.observe(0.01)
    assert qps.value == pytest.approx(0.1)
    assert "t_qps 0.1" in qps.render()
    now["t"] += 120.0
    assert qps.value == 0.0
    assert qps.render() == ["# HELP t_qps help", "# TYPE t_qps gauge", "t_qps 0"]


def test_the_registered_qps_gauge_is_that_view(telemetry):
    assert isinstance(metrics.WINDOW_QPS, WindowRate)
    flight.record("scheduler.done", "q", latency_s=0.002, rows=1, inflight=0)
    assert metrics.WINDOW_QPS.value == metrics.WINDOW_QUERY_LATENCY.rate() > 0
    text = metrics.render_prometheus()
    assert "# TYPE repro_window_qps gauge" in text
    assert math.isclose(
        float(text.split("\nrepro_window_qps ")[1].split("\n")[0]),
        metrics.WINDOW_QUERY_LATENCY.rate(),
    )


# --- structure -------------------------------------------------------------------


def test_the_bare_series_are_exactly_the_listed_ones():
    bound = _bound()
    assert {name for name, s in _series().items() if id(s) not in bound} == BARE
    for pairs in metrics.REGISTRY.bindings.values():
        for series, field in pairs:
            assert field is not None or isinstance(series, Counter), series.name


def test_nobody_outside_obs_mutates_a_bound_series():
    """A bound series changes through ``recorder.record`` alone: outside
    ``src/repro/obs/`` no ``.inc/.dec/.observe/.set`` on one of them."""
    bound = {name for name in _series() if name not in BARE}
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    mutated = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith("obs/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            target = node.func.value
            if node.func.attr not in {"inc", "dec", "observe", "set"}:
                continue
            if isinstance(target, ast.Attribute) and target.attr in _series():
                mutated.add(target.attr)
                if target.attr in bound:
                    offenders.append(f"{relative}:{node.lineno} {target.attr}.{node.func.attr}")
    assert not offenders, offenders
    # ... and every bare series except the derived gauge has its producer.
    assert mutated == BARE - {"WINDOW_QPS"}


# --- docs ------------------------------------------------------------------------


def binding_table() -> str:
    """DESIGN §13's kind → series table, generated from the bindings."""
    lines = ["| event kind | series (← detail field) |", "|---|---|"]
    for kind in sorted(metrics.REGISTRY.bindings):
        cells = [
            f"`{series.name}`" + (f" ← `{field}`" if field else "")
            for series, field in metrics.REGISTRY.bindings[kind]
        ]
        lines.append(f"| `{kind}` | {', '.join(cells)} |")
    return "\n".join(lines)


def test_design_lists_the_bindings_the_registry_declares():
    design = (pathlib.Path(__file__).parent.parent / "DESIGN.md").read_text()
    assert binding_table() in design, "regenerate DESIGN §13's table:\n" + binding_table()
