"""Concurrent multi-query scheduler: admission, time-slicing, sharing.

The paper's experiments run one query at a time; a serving system runs
many.  This module adds the workload layer on top of the existing
serial operator engine without threads: queries are **cooperatively
time-sliced** — the scheduler round-robins one operator ``next()``
call — one batch — (or, for shared scans, one pump of the stream: the
window's run of segments, an I/O unit at most) per active query per
round.  A slice is sized by the unit of I/O, not by the page; the
governance layer still checkpoints once per logical block and once per
segment *inside* it, so a query's ticks, charges and typed-error points
are those of a segment-at-a-time ride and only the interleaving of
``poll()`` rounds is coarser.

* **Admission control** — at most ``max_inflight`` queries execute at
  once; the rest wait in a FIFO queue.  A query's governance deadline
  starts at *submit* time, so queue time counts against it and a query
  whose deadline lapses while queued fails fast with
  :class:`~repro.errors.QueryTimeout` without ever running.
* **Shared scans** — co-running queries over the same table and column
  set attach to one circular :class:`~repro.engine.sharing.
  SharedScanStream` (I/O once, per-consumer CPU), mirroring the
  Figure 11 competing-scans model (:func:`repro.iosim.sharing.
  measure_competing_scans`).
* **Isolation** — each query runs under its own
  :class:`~repro.engine.context.ExecutionContext` and
  :class:`~repro.engine.governance.QueryContext`; one query's timeout,
  cancel, or decode failure detaches it without disturbing its
  scan-share peers.
* **Observability** — ``repro_scheduler_*`` metrics (queue depth,
  admission waits, share hit-rate, in-flight gauge, windowed latency
  quantiles + qps), flight-recorder lifecycle events with a black-box
  dump per failed query (:mod:`repro.obs.recorder`), a per-batch
  slow-query log (:mod:`repro.obs.slowlog`), and, with ``trace=True``,
  one span track per query stitched into a single scheduler-level
  :class:`~repro.obs.trace.SpanTracer`.

**Attribution under interleaving.**  Although many queries co-run,
per-query accounting never crosses: each admitted query gets its own
``ExecutionContext`` (its own CostEvents) and, when tracing, its own
``SpanTracer``, so a timeslice granted to query A mutates only A's
events and spans regardless of what B did the round before.  The
process-global metrics REGISTRY intentionally sees the *sum* — it is
workload-level by contract.  ``tests/test_scheduler_telemetry.py``
pins both properties.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.engine.blocks import concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult
from repro.engine.governance import CancellationToken, QueryContext
from repro.engine.plan import ColumnScannerKind, scan_plan
from repro.engine.query import Query, ScanQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer
from repro.errors import EngineError, PlanError, ReproError
from repro.obs import recorder as flight
from repro.obs.explain import render_explain
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import SpanTracer
from repro.storage.table import Table

__all__ = ["JobHandle", "QueryHandle", "QueryState", "Scheduler", "WorkloadQuery"]


def _typed(exc: BaseException) -> ReproError:
    """What a handle carries for ``exc``: typed errors as they are,
    anything else wrapped in :class:`EngineError` with the cause chained."""
    if isinstance(exc, ReproError):
        return exc
    error = EngineError(f"{type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


class QueryState(Enum):
    """Lifecycle of one submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class WorkloadQuery:
    """One declarative request of a :meth:`repro.database.Database.
    run_workload` batch."""

    table: str
    select: tuple[str, ...]
    predicates: tuple = ()
    timeout: float | None = None
    memory_budget: int | None = None
    salvage: bool = False
    label: str = ""


class QueryHandle:
    """A submitted query: its state, timing, and (eventually) result."""

    def __init__(
        self,
        index: int,
        scheduler: "Scheduler",
        table: Table,
        query: ScanQuery,
        governance: QueryContext,
        salvage: bool,
        column_scanner: ColumnScannerKind,
    ):
        self.index = index
        self.table = table
        self.query = query
        self.governance = governance
        self.salvage = salvage
        self.column_scanner = column_scanner
        self.state = QueryState.QUEUED
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        #: True when the query rode a shared scan stream.
        self.shared = False
        #: Cooperative timeslices granted so far.
        self.slices = 0
        #: Command that reproduces this query's failure (chaos cases
        #: stamp ``python -m repro.testing.chaos --seed N`` here; it
        #: rides into the black-box dump on failure).
        self.replay = ""
        #: Optional result transform applied before the result lands
        #: (the hybrid write path's overlay application).
        self.post: Callable[[QueryResult], QueryResult] | None = None
        self.submitted_at = time.monotonic()
        self.admitted_at: float | None = None
        self.finished_at: float | None = None
        #: The scheduler that runs this query, until it finishes: a
        #: finished handle must not keep its batch alive (the scheduler
        #: lists every handle, so the pair would wait for the cycle
        #: collector).
        self._scheduler: Scheduler | None = scheduler
        self._tracer: SpanTracer | None = None

    @property
    def done(self) -> bool:
        return self.state in (QueryState.DONE, QueryState.FAILED)

    @property
    def queue_seconds(self) -> float | None:
        """Time spent waiting for admission (None while still queued)."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall seconds (queue time included)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Trip this query's cancellation token (cooperative)."""
        self.governance.token.cancel(reason)

    def wait(self) -> "QueryHandle":
        """Drive the scheduler until this query finishes; never raises."""
        if self._scheduler is not None:
            self._scheduler.run_until(self)
        return self

    def value(self) -> QueryResult:
        """The result, driving the scheduler as needed; raises on failure."""
        self.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class JobHandle:
    """A background maintenance job (e.g. an incremental merge).

    Jobs share the scheduler's cooperative loop: one generator step per
    :meth:`Scheduler.poll` round, interleaved with query timeslices, so
    a long merge proceeds while in-flight queries keep finishing on the
    snapshot they started on.
    """

    def __init__(self, index: int, label: str, gen):
        self.index = index
        self.label = label
        self._gen = gen
        self.steps = 0
        self.done = False
        self.error: Exception | None = None
        self.result = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class Scheduler:
    """Cooperative multi-query executor over the serial engine.

    Single-threaded by design: concurrency here means *interleaving*,
    which is what makes every scheduled execution byte-reproducible and
    lets the equivalence suite diff each query against its serial
    oracle run.  Only plain scan queries (projection + conjunctive
    predicates) are schedulable; a :class:`~repro.engine.query.Query`
    with materializing operators runs on the serial or the parallel
    executor.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        share_scans: bool = True,
        column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
        trace: bool = False,
        slowlog: SlowQueryLog | None = None,
    ):
        if max_inflight < 1:
            raise PlanError(f"max_inflight must be >= 1: {max_inflight}")
        self.max_inflight = max_inflight
        self.share_scans = share_scans
        self.column_scanner = column_scanner
        self.manager = ScanShareManager()
        #: Per-query span trees land here, one track per query index.
        self.tracer: SpanTracer | None = SpanTracer() if trace else None
        #: Every finished query is offered to the batch slow-query log.
        self.slowlog = slowlog if slowlog is not None else SlowQueryLog()
        self._queue: deque[QueryHandle] = deque()
        #: ``(handle, timeslice generator, plan)`` per admitted query.
        self._active: list[tuple] = []
        self._handles: list[QueryHandle] = []
        #: Background maintenance jobs, one generator step per round.
        self._jobs: list[JobHandle] = []
        self.completed = 0
        self.failed = 0

    # --- submission -------------------------------------------------------

    def submit(
        self,
        table: Table,
        query: ScanQuery | Query,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        salvage: bool = False,
        label: str = "",
        column_scanner: ColumnScannerKind | None = None,
        on_tick: Callable[[QueryContext], None] | None = None,
        replay: str = "",
        post: Callable[[QueryResult], QueryResult] | None = None,
    ) -> QueryHandle:
        """Enqueue one scan query; returns immediately with a handle.

        The governance deadline is anchored *now* — time spent waiting
        in the admission queue counts against ``timeout``.  ``replay``
        is an optional shell command that reproduces this submission
        (seeded harnesses pass it); it is stamped into the black-box
        dump should the query fail.  ``post`` transforms the collected
        result before it lands on the handle — the hybrid write path
        passes the overlay's ``apply`` here, snapshotted at submit
        time, so a scheduled query sees the table as of its submission
        even if writes land while it waits or runs.  A shaped
        :class:`~repro.engine.query.Query` raises
        :class:`~repro.errors.PlanError` here, not mid-slice.
        """
        if isinstance(query, Query):
            if not query.plain:
                raise PlanError(
                    "only plain scans are schedulable; run a shaped Query "
                    "on the serial or the parallel executor"
                )
            query = query.scan
        governance = QueryContext.start(
            timeout=timeout,
            memory_budget=memory_budget,
            token=cancellation,
            label=label or f"scheduled query #{len(self._handles)} on {query.table}",
        )
        governance.on_tick = on_tick
        handle = QueryHandle(
            index=len(self._handles),
            scheduler=self,
            table=table,
            query=query,
            governance=governance,
            salvage=salvage,
            column_scanner=column_scanner or self.column_scanner,
        )
        handle.replay = replay
        handle.post = post
        self._handles.append(handle)
        self._queue.append(handle)
        flight.record(
            "scheduler.submit",
            governance.label,
            table=query.table,
            queue_depth=len(self._queue),
        )
        return handle

    # --- admission --------------------------------------------------------

    def _admit(self) -> None:
        while self._queue and len(self._active) < self.max_inflight:
            handle = self._queue.popleft()
            handle.admitted_at = time.monotonic()
            try:
                # Queue time is charged to the deadline: a query that
                # waited past it fails here without running a page.
                handle.governance.check("admission")
                plan, context = self._build_plan(handle)
            except ReproError as exc:
                self._finish(handle, exc)
                continue
            handle.state = QueryState.RUNNING
            self._active.append(
                (handle, self._execute(handle, plan, context), plan)
            )
            flight.record(
                "scheduler.admit",
                handle.governance.label,
                queue_s=round(handle.queue_seconds or 0.0, 6),
                inflight=len(self._active),
            )

    def _build_plan(self, handle: QueryHandle):
        context = ExecutionContext(governance=handle.governance)
        if handle.salvage:
            context.strict_integrity = False
        if self.tracer is not None:
            context.tracer = SpanTracer()
            handle._tracer = context.tracer
        if self.share_scans:
            plan = self.manager.acquire(handle.table, handle.query, context)
            handle.shared = True
        else:
            plan = scan_plan(
                context, handle.table, handle.query, handle.column_scanner
            )
        return plan, context

    # --- execution --------------------------------------------------------

    def _execute(self, handle: QueryHandle, plan, context: ExecutionContext):
        """Generator: one yield per cooperative timeslice."""
        plan.open()
        blocks = []
        if isinstance(plan, SharedScanConsumer):
            # Window-granular slicing: one stream pump — the window's
            # run of segments, a checkpoint per segment inside it — per
            # timeslice (a consumer may also finish passively off
            # peers' pumps).
            window = plan.share.window_segments
            while plan.advance(window):
                yield
        while True:
            block = plan.next()
            if block is None:
                break
            blocks.append(block)
            yield
        plan.close()
        merged = concat_blocks(blocks)
        result = QueryResult(
            columns=merged.columns,
            positions=merged.positions,
            events=context.events,
            corruption=context.corruption,
        )
        if handle.post is not None:
            result = handle.post(result)
        handle.result = result

    # --- background jobs --------------------------------------------------

    def submit_job(self, gen, label: str = "job") -> JobHandle:
        """Register a background maintenance job (a step generator).

        The generator is advanced one step per :meth:`poll` round,
        interleaved with query timeslices; its return value lands on
        ``JobHandle.result`` when it finishes.  A failure is captured
        on the handle as a typed error (and black-boxed), never raised
        into the scheduler loop — see :meth:`poll`.
        """
        job = JobHandle(index=len(self._jobs), label=label, gen=gen)
        self._jobs.append(job)
        flight.record("scheduler.job.submit", label)
        return job

    def _tick_jobs(self) -> None:
        for job in self._jobs:
            if job.done:
                continue
            try:
                job.steps += 1
                next(job._gen)
            except StopIteration as stop:
                job.done = True
                job.result = stop.value
                flight.record("scheduler.job.done", job.label, steps=job.steps)
            except BaseException as exc:
                job.done = True
                job.error = _typed(exc)
                flight.record(
                    "scheduler.job.failed", job.label, error=type(job.error).__name__
                )
                flight.blackbox(job.label, error=job.error)
                if not isinstance(exc, Exception):
                    raise

    def poll(self) -> bool:
        """One scheduler round: admit, then one timeslice per active query
        and one step per background job.

        Returns True while any query is queued or running, or any
        background job is unfinished.  A timeslice or job step that
        raises fails its own handle — with the typed error, or an
        :class:`~repro.errors.EngineError` chained to an untyped one —
        gets its one black box and is never advanced again, while its
        peers keep running; only a ``KeyboardInterrupt`` or other
        non-``Exception`` is re-raised, after the same bookkeeping.
        """
        self._admit()
        for entry in list(self._active):
            handle, gen, plan = entry
            try:
                handle.slices += 1
                # Slice events are sampled 1-in-8: enough to see each
                # query's progress cadence in the ring without paying a
                # recorder append on every block of a long scan.
                if handle.slices & 7 == 1:
                    flight.record(
                        "scheduler.slice",
                        handle.governance.label,
                        slice=handle.slices,
                    )
                next(gen)
            except StopIteration:
                self._active.remove(entry)
                self._finish(handle)
            except BaseException as exc:
                self._active.remove(entry)
                self._abandon_plan(plan)
                self._finish(handle, _typed(exc))
                if not isinstance(exc, Exception):
                    raise
            self._admit()
        self._tick_jobs()
        return bool(
            self._active
            or self._queue
            or any(not job.done for job in self._jobs)
        )

    def _abandon_plan(self, plan) -> None:
        """Release a failed query's plan without touching share peers."""
        if isinstance(plan, SharedScanConsumer):
            self.manager.discard(plan)
            return
        try:
            plan.close()
        except Exception:  # the query has already failed; peers must run on
            pass

    def run(self) -> None:
        """Drive every submitted query to completion."""
        while self.poll():
            pass

    def run_until(self, handle: QueryHandle) -> None:
        """Drive the scheduler until ``handle`` finishes."""
        while not handle.done:
            if not self.poll() and not handle.done:
                raise EngineError(
                    f"scheduler idle with query #{handle.index} unfinished"
                )

    # --- completion -------------------------------------------------------

    def _finish(self, handle: QueryHandle, error: Exception | None = None) -> None:
        """The one exit of a scheduled query: one lifecycle event, then a
        failure's one black box (so the box holds that event too), one
        slow-log entry, and the span tree grafted onto the query's track."""
        handle.state = QueryState.DONE if error is None else QueryState.FAILED
        handle.error = error
        handle.finished_at = time.monotonic()
        handle._scheduler = None
        label, result, tracer = handle.governance.label, handle.result, handle._tracer
        rows = result.num_tuples if result is not None else None
        if error is None:
            self.completed += 1
            kind, outcome = "scheduler.done", {"rows": rows}
        else:
            self.failed += 1
            kind, outcome = "scheduler.failed", {"error": type(error).__name__}
        flight.record(
            kind,
            label,
            latency_s=round(handle.latency, 6),
            inflight=len(self._active),
            **outcome,
        )
        if error is not None:
            flight.blackbox(
                label,
                error=error,
                governance=handle.governance.snapshot(),
                tracer=tracer,
                replay=handle.replay,
            )
        explain = None
        if tracer is not None and tracer.roots:
            explain = render_explain(tracer)
            self.tracer.attach_subtree(
                tracer.roots, tracer.slices, track=handle.index, epoch_ns=tracer.epoch_ns
            )
        self.slowlog.observe(
            SlowQueryEntry(
                label=label,
                table=handle.query.table,
                latency_s=handle.latency,
                queue_s=handle.queue_seconds or 0.0,
                slices=handle.slices,
                rows=rows,
                error=outcome.get("error"),
                shared=handle.shared,
                events=result.events.as_dict() if result is not None else {},
                explain=explain,
            )
        )

    # --- reporting --------------------------------------------------------

    def handles(self) -> list[QueryHandle]:
        """Every handle ever submitted, in submission order."""
        return list(self._handles)

    def modeled_io_bytes(self) -> int:
        """Total modeled I/O of the workload so far, shares counted once.

        Shared streams account their page reads exactly once on the
        stream (see :class:`~repro.engine.sharing.SharedScanStream`);
        unshared queries each pay for their own pages.
        """
        total = self.manager.io_bytes()
        for handle in self._handles:
            if handle.shared or handle.result is None:
                continue
            total += handle.result.events.pages_touched * handle.table.page_size
        return total

    def board(self) -> dict:
        """Live scheduler board for the dashboard: queues, riders, streams."""
        return {
            "queued": [handle.governance.label for handle in self._queue],
            "running": [
                {
                    "label": handle.governance.label,
                    "table": handle.query.table,
                    "slices": handle.slices,
                    "shared": handle.shared,
                }
                for handle, _, _ in self._active
            ],
            "streams": self.manager.board(),
            "jobs": [
                {
                    "label": job.label,
                    "steps": job.steps,
                    "done": job.done,
                    "failed": job.failed,
                }
                for job in self._jobs
            ],
            "completed": self.completed,
            "failed": self.failed,
        }

    def stats(self) -> dict:
        """Workload-level summary (feeds ``run_workload``'s info dict)."""
        queue_waits = [
            handle.queue_seconds
            for handle in self._handles
            if handle.queue_seconds is not None
        ]
        return {
            "submitted": len(self._handles),
            "completed": self.completed,
            "failed": self.failed,
            "queued": len(self._queue),
            "running": len(self._active),
            "max_inflight": self.max_inflight,
            "share_scans": self.share_scans,
            "max_queue_wait_s": max(queue_waits, default=0.0),
            "modeled_io_bytes": self.modeled_io_bytes(),
            **self.manager.stats(),
        }
