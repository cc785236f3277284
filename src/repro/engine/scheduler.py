"""Concurrent multi-query scheduler: admission, time-slicing, sharing.

The paper's experiments run one query at a time; a serving system runs
many.  This module adds the workload layer on top of the existing
serial operator engine without threads: every scheduled query rides a
:class:`~repro.engine.sharing.SharedScanStream`, and queries are
**cooperatively time-sliced** — the scheduler round-robins one pump of
a query's stream (the window's run of segments, an I/O unit at most),
then one hand-off of its result batch, per active query per round.  A
slice is sized by the unit of I/O, not by the page; the governance
layer still checkpoints once per segment *inside* it, so a query's
ticks, charges and typed-error points are those of a segment-at-a-time
ride and only the interleaving of ``poll()`` rounds is coarser.

* **Admission control** — at most ``max_inflight`` queries advance at
  once; the rest wait in a FIFO queue.  ``max_inflight`` bounds the
  queries that advance, not the ones that receive: once the window is
  full, a queued query whose share key names a live stream *boards* it
  — its plan is built there and then, attached at the stream's cursor —
  and takes its segments off its peers' pumps while it waits; admission
  then runs that plan.  A query's governance deadline starts at
  *submit* time, so queue time counts against it and a query whose
  deadline lapses (or that is cancelled) while queued fails fast at
  admission with :class:`~repro.errors.QueryTimeout` (or
  :class:`~repro.errors.QueryCancelled`) without ever advancing — a
  rider that boarded leaves its stream first.
* **Shared scans** — queries with the same share key, running or
  queued, attach to its one circular stream (I/O once, per-consumer
  CPU), mirroring the Figure 11 competing-scans model
  (:func:`repro.iosim.sharing.measure_competing_scans`).  On a row or
  PAX table the key is the table and integrity mode: the stream pumps
  whole pages and each rider reads its own attributes off them, so a
  query arriving mid-pass rides it whatever it reads.  On a column
  table the key also names the column set.  ``share_scans=False`` keeps
  Figure 11's control arm by giving each query a share key no other can
  match: it opens its own stream and never takes a second rider.
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
from repro.engine.query import Query, ScanQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer, share_key
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
        share_key: tuple,
    ):
        self.index = index
        self.table = table
        self.query = query
        self.governance = governance
        self.salvage = salvage
        self.state = QueryState.QUEUED
        self.result: QueryResult | None = None
        self.error: Exception | None = None
        #: The key of the stream it rides, computed once at submit.
        self.share_key = share_key
        #: ``(plan, context)`` built when it boarded a live stream while
        #: queued; its admission takes it.
        self._built: tuple | None = None
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
    executor.  Every query rides a shared scan stream; with
    ``share_scans=False`` each one opens its own and rides it alone.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        share_scans: bool = True,
        trace: bool = False,
        slowlog: SlowQueryLog | None = None,
    ):
        if max_inflight < 1:
            raise PlanError(f"max_inflight must be >= 1: {max_inflight}")
        self.max_inflight = max_inflight
        self.share_scans = share_scans
        self.manager = ScanShareManager()
        #: Per-query span trees land here, one track per query index.
        self.tracer: SpanTracer | None = SpanTracer() if trace else None
        #: Every finished query is offered to the batch slow-query log.
        self.slowlog = slowlog if slowlog is not None else SlowQueryLog()
        self._queue: deque[QueryHandle] = deque()
        #: Queued handles not riding yet, by share key, in queue order.
        self._unboarded: dict[tuple, deque[QueryHandle]] = {}
        #: Share keys to look up at the next boarding pass: those of
        #: handles submitted, or streams opened, since the last one.
        self._board_keys: dict[tuple, None] = {}
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
        index = len(self._handles)
        governance = QueryContext.start(
            timeout=timeout,
            memory_budget=memory_budget,
            token=cancellation,
            label=label or f"scheduled query #{index} on {query.table}",
        )
        governance.on_tick = on_tick
        key = share_key(table, query, not salvage)
        if not self.share_scans:
            key = (key, index)  # no other query's: it rides alone
        handle = QueryHandle(
            index=index,
            scheduler=self,
            table=table,
            query=query,
            governance=governance,
            salvage=salvage,
            share_key=key,
        )
        handle.replay = replay
        handle.post = post
        self._handles.append(handle)
        self._queue.append(handle)
        self._unboarded.setdefault(key, deque()).append(handle)
        self._board_keys[key] = None
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
            built, handle._built = handle._built, None
            if built is None:
                # Never boarded: a pass boards a key's whole line, so it heads its own.
                waiting = self._unboarded[handle.share_key]
                waiting.popleft()
                if not waiting:
                    del self._unboarded[handle.share_key]
            try:
                # Queue time is charged to the deadline: a query that
                # waited past it fails here without advancing a page.
                handle.governance.check("admission")
                if built is None:
                    built = self._build_plan(handle)
                    # It may have opened a stream its queue can board.
                    self._board_keys[handle.share_key] = None
            except ReproError as exc:
                salvaged = 0
                if built is not None:
                    # It rode while queued: leave the stream to its peers.
                    self.manager.discard(built[0])
                    salvaged = len(built[1].corruption.faults)
                self._finish(handle, exc, salvaged, None if built is None else built[0])
                continue
            plan, context = built
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
        if self._queue and self._board_keys:
            self._board()

    def _board(self) -> None:
        """The window is full: each queued handle whose share key has a
        live stream boards it, its plan built now, and receives segments
        off its peers' pumps until admission runs that plan; boarding
        never opens a stream.  Only keys submitted or opened since the
        last pass are looked up."""
        keys, self._board_keys = self._board_keys, {}
        for key in keys:
            if key not in self._unboarded or self.manager.live_stream(key) is None:
                continue
            for handle in self._unboarded.pop(key):
                try:
                    handle._built = self._build_plan(handle)
                except ReproError as exc:
                    # A plan that cannot be built fails its own query
                    # now; it never boards, nor runs.
                    self._queue.remove(handle)
                    self._finish(handle, exc)

    def _build_plan(self, handle: QueryHandle):
        context = ExecutionContext(governance=handle.governance)
        if handle.salvage:
            context.strict_integrity = False
        if self.tracer is not None:
            context.tracer = SpanTracer()
            handle._tracer = context.tracer
        plan = self.manager.acquire(
            handle.table,
            handle.query,
            context,
            handle.share_key,
            # Not admitted yet: it boards while it waits.
            queued=handle.admitted_at is None,
        )
        return plan, context

    # --- execution --------------------------------------------------------

    def _execute(self, handle: QueryHandle, plan, context: ExecutionContext):
        """Generator: one yield per cooperative timeslice."""
        plan.open()
        # Window-granular slicing: one stream pump — the run of segments
        # left in its prefetch window, a checkpoint per segment inside
        # it — per timeslice (a rider may also finish passively off
        # peers' pumps).
        window = plan.share.window_segments
        while plan.advance(window):
            yield
        blocks = []
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
                self._finish(handle, salvaged=len(plan.context.corruption.faults), plan=plan)
            except BaseException as exc:
                self._active.remove(entry)
                # Leave the stream to its peers.
                self.manager.discard(plan)
                self._finish(handle, _typed(exc), len(plan.context.corruption.faults), plan)
                if not isinstance(exc, Exception):
                    raise
            self._admit()
        self._tick_jobs()
        return bool(
            self._active
            or self._queue
            or any(not job.done for job in self._jobs)
        )

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

    def _finish(
        self,
        handle: QueryHandle,
        error: Exception | None = None,
        salvaged: int = 0,
        plan: SharedScanConsumer | None = None,
    ) -> None:
        """The one exit of a scheduled query: one lifecycle event, carrying
        the ``salvaged`` pages it dropped, then a failure's one black box
        (so the box holds that event too), one slow-log entry, and the
        span tree grafted onto the query's track.  The decodes its rider
        ``plan`` and the stream it rode have timed and not yet observed
        reach ``repro_page_decode_seconds`` here, once."""
        if plan is not None:
            plan.context.observe_decodes()
            plan.share.observe_decodes()
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
            salvaged=salvaged,
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
                events=result.events.as_dict() if result is not None else {},
                explain=explain,
            )
        )

    # --- reporting --------------------------------------------------------

    def handles(self) -> list[QueryHandle]:
        """Every handle ever submitted, in submission order."""
        return list(self._handles)

    def board(self) -> dict:
        """Live scheduler board for the dashboard: queues, riders, streams
        (each stream's ``queued`` lists its riders still waiting for
        admission)."""
        queued = [handle.governance.label for handle in self._queue]
        waiting = set(queued)
        streams = self.manager.board()
        for stream in streams:
            stream["queued"] = [label for label in stream["riders"] if label in waiting]
        return {
            "queued": queued,
            "running": [
                {
                    "label": handle.governance.label,
                    "table": handle.query.table,
                    "slices": handle.slices,
                }
                for handle, _, _ in self._active
            ],
            "streams": streams,
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
            # Every query rides a stream, which charges its pages once.
            "modeled_io_bytes": self.manager.io_bytes(),
            **self.manager.stats(),
        }
