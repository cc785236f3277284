"""Parallel query execution over horizontal partitions, on threads.

The engine stays single-threaded *per plan* (the paper's Section 4
design); parallelism comes from running one plan per row-range
partition on a persistent thread pool and merging the materialized
partials in the caller (:func:`_merge_plan`): plain selections gather
in partition order, which is global Record-ID order; aggregates merge
decomposed partials (:func:`~repro.engine.plan.decompose_aggregate`)
with the serial ``HashAggregate``'s arithmetic; sorted output k-way
merges the partitions' sorted runs; LIMIT and top-N re-apply the
operator over each partition's first or best ``k``, top-N candidates
re-ordered by position first so ties break as in the serial stable sort.

Cost accounting is exactly-once: each partition runs under a fresh
:class:`~repro.engine.context.ExecutionContext` whose events and
corruption report are merged into the caller's once, before the
(traced) merge plan runs, boundary pages deduplicated by ``(file,
page)``; partition span trees are stitched under the gather node, one
track each.

Partitions read the caller's table objects in place — nothing is
copied — and hold the caller's deadline and cancellation token.  NumPy
decode and filter kernels release the GIL, so a second core pays off
where the plan is CPU-bound (the paper's ``R = MIN(R_DISK, R_CPU)``).

Failure policy is a **supervision ladder** (see
:mod:`repro.engine.governance`): a partition that raises is re-run
alone, inline; a supervised partition stamps a beat when it starts and
at every checkpoint (time queued behind other queries' partitions is
not silence: only the dispatch guard bounds it), and one silent past
the stall timeout is abandoned with the other partitions still running,
which move down the ladder — workers halved down to an inline run; a
partition that keeps failing (per :class:`~repro.database.Database`) is
routed by a circuit breaker to a salvage-mode serial scan.  Whatever
ends a query — a typed :class:`~repro.errors.GovernanceError`, a stall,
``KeyboardInterrupt`` — sets the abandon flag of each partition still
running, which it sees at its next checkpoint, and drops those still
queued.  An ungoverned partition has no checkpoint and runs to its end.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    GovernanceError,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.operators.base import Operator
from repro.engine.operators.gather import GatherOperator, MergePartials, MergeSortedRuns
from repro.engine.operators.limit import Limit, TopN
from repro.engine.plan import ColumnScannerKind, build_plan, partial_plans
from repro.engine.query import AggregateSpec, Query, ScanQuery
from repro.errors import PlanError, ReproError
from repro.obs import recorder as flight
from repro.obs.trace import SpanTracer
from repro.storage.partition import partition_ranges
from repro.storage.scrub import CorruptionReport
from repro.storage.table import Table

__all__ = ["WorkerCrash", "parallel_query", "shutdown_pools"]

#: Governance tick on which an injected stall fires inside a partition
#: — late enough to be genuinely mid-scan.
_CHAOS_ACTION_TICK = 3


class WorkerCrash(RuntimeError):
    """A partition failed under its task: an injected crash."""


class _Stopped(Exception):
    """Raised at a pool partition's checkpoint once its query is over for
    it: abandoned, or the caller's token or deadline tripped.  The
    caller's own checkpoint then raises the typed error, once."""


@dataclass(frozen=True)
class WorkerTask:
    """Everything one partition needs to run its plan."""

    index: int
    table: Table
    query: Query                 #: the whole request, shape included
    row_range: tuple[int, int]
    column_scanner: ColumnScannerKind
    #: The caller's context: settings, tracing on or off, governance.
    context: ExecutionContext
    memory_budget: int | None = None  #: this partition's budget share
    crash: bool = False          #: test hook: raise instead of executing
    stall_seconds: float = 0.0   #: chaos hook: wait mid-scan once


@dataclass(eq=False)
class _Lane:
    """One partition on the pool: its abandon flag and its beats."""

    abandon: threading.Event = field(default_factory=threading.Event)
    dispatched: float = field(default_factory=time.monotonic)  #: submitted at
    #: A supervised partition's start on a pool thread or last
    #: checkpoint; ``None`` while it waits in the pool's queue, which is
    #: not silence, and for good if it does not beat.
    beat: float | None = None
    future: Future | None = None

    def due(self, beat: float | None, policy: SupervisionPolicy) -> float:
        """``stall_timeout`` past ``beat`` once it beats, else the guard past its dispatch."""
        if beat is None:
            return self.dispatched + policy.max_dispatch_seconds
        return beat + policy.stall_timeout


@dataclass
class WorkerOutput:
    """One partition's materialized partial result and what it ran under."""

    index: int
    columns: dict[str, np.ndarray]
    positions: np.ndarray
    #: Its events, corruption report, tracer and governance: a supervised
    #: pool run's own (its outcomes are the caller's to note), else the caller's.
    context: ExecutionContext


def _partition_governance(task: WorkerTask, lane: _Lane) -> QueryContext:
    """The lifecycle context of one supervised partition on the pool.

    It holds the caller's deadline and token and a share of its budget.
    The tick hook stamps ``lane.beat``, fires an injected stall a few
    ticks in — genuinely mid-scan — as a wait on the lane's abandon
    flag, and stops the partition once that flag is set, the token is
    cancelled or the deadline has passed: the partition frees its thread
    at its next checkpoint.
    """
    caller = task.context.governance
    governance = QueryContext(
        deadline=caller.deadline if caller else None,
        memory_budget=task.memory_budget,
        token=caller.token if caller else CancellationToken(),
        label=f"partition {task.index}",
    )
    stall = task.stall_seconds

    def on_tick(gov: QueryContext) -> None:
        nonlocal stall
        lane.beat = time.monotonic()
        if stall and gov.ticks >= _CHAOS_ACTION_TICK:
            lane.abandon.wait(stall)
            stall = 0.0
        if (
            lane.abandon.is_set()
            or gov.token.cancelled
            or (gov.deadline is not None and time.monotonic() > gov.deadline)
        ):
            raise _Stopped(f"partition {task.index} stopped")

    governance.on_tick = on_tick
    return governance


def _execute_task(task: WorkerTask, lane: _Lane | None = None) -> WorkerOutput:
    """Run one partition's plan, supervised on the pool (``lane``) or not.

    Unsupervised, the plan runs under the caller's own
    :class:`~repro.engine.governance.QueryContext` (inline, its ticks
    and budget accounting land there; on the pool there is none); a
    supervised pool run gets a context of its own
    (:func:`_partition_governance`).
    """
    if task.crash:
        raise WorkerCrash(f"injected crash in partition {task.index}")
    owned = lane is not None
    if owned:
        lane.beat = time.monotonic()
    governance = _partition_governance(task, lane) if owned else task.context.governance
    table = task.table
    context = replace(
        task.context,
        events=CostEvents(),
        corruption=CorruptionReport(),
        tracer=SpanTracer() if task.context.tracer is not None else None,
        governance=governance,
    )

    if task.query.aggregate is not None:
        partials = [
            execute_plan(plan)
            for plan in partial_plans(
                context, table, task.query, task.column_scanner, task.row_range
            )
        ]
        # The partials' columns share the group-by key.
        columns = dict(partials[0].columns)
        for extra in partials[1:]:
            for name, values in extra.columns.items():
                columns.setdefault(name, values)
        positions = partials[0].positions
    else:
        result = execute_plan(
            build_plan(context, table, task.query, task.column_scanner, task.row_range)
        )
        columns = result.columns
        positions = result.positions
    return WorkerOutput(task.index, columns, positions, context)


# --- the partition pool ----------------------------------------------------------


_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()


def _submit(size: int, task: WorkerTask, lane: _Lane | None) -> Future:
    """Run ``task`` on the persistent pool, first grown to ``size`` threads."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < size:
            if _POOL is not None:
                _POOL.shutdown(wait=False)  # its running partitions finish
            _POOL = ThreadPoolExecutor(size, thread_name_prefix="repro-partition")
            _POOL_SIZE = size
        return _POOL.submit(_execute_task, task, lane)


def shutdown_pools() -> None:
    """Shut the partition pool down; the next parallel query starts one."""
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        pool, _POOL, _POOL_SIZE = _POOL, None, 0
    if pool is not None:
        pool.shutdown()


# --- supervision ladder ----------------------------------------------------------


@dataclass
class _Supervision:
    """One query's supervised dispatch: the state every rung shares."""

    base: dict[int, WorkerTask]   #: the clean (re-runnable) task per partition
    first: dict[int, WorkerTask]  #: ``base`` + injections: first rung only
    keys: dict[int, tuple]        #: circuit-breaker key per partition
    governance: QueryContext | None
    policy: SupervisionPolicy
    breaker: CircuitBreaker | None
    supervised: bool  #: partitions beat; silence past ``stall_timeout`` is a stall
    notes: list[str]
    outputs: dict[int, WorkerOutput] = field(default_factory=dict)
    tainted: set[int] = field(default_factory=set)
    pool_ran: bool = False  #: some partition completed on the pool (mode)

    @property
    def label(self) -> str | None:
        return self.governance.label if self.governance is not None else None

    def run(self, workers: int) -> None:
        """Fill ``outputs`` for every partition, walking down the ladder."""
        pending = dict(self.base)
        # Breaker-open partitions never reach the pool: they are served
        # by salvage-mode serial scans (skip-don't-crash) straight away.
        if self.breaker is not None:
            for index in sorted(pending):
                if self.breaker.is_open(self.keys[index]):
                    task = self.base[index]
                    salvage = replace(task.context, strict_integrity=False)
                    self.outputs[index] = _execute_task(replace(task, context=salvage))
                    del pending[index]
                    self.notes.append(
                        f"breaker open: partition {index} routed to salvage serial scan"
                    )
        submit = self.first
        rung = min(workers, len(pending))
        while pending and rung >= 1:
            reason = self._run_rung(pending, submit, rung)
            if reason is None:
                break
            submit = self.base
            flight.record(
                "parallel.degrade", self.label,
                workers_from=rung, workers_to=rung // 2, reason=reason,
            )
            self.notes.append(f"degraded workers {rung}→{rung // 2 or 'serial'}: {reason}")
            rung //= 2
        for index in sorted(pending):
            self.outputs[index] = _execute_task(self.base[index])

    def _fail(self, index: int) -> None:
        self.tainted.add(index)
        if self.breaker is not None:
            self.breaker.record_failure(self.keys[index])

    def _run_rung(
        self, pending: dict[int, WorkerTask], submit: dict[int, WorkerTask], rung: int
    ) -> str | None:
        """One rung of the ladder: ``rung`` partitions at a time on the pool.

        Completed partitions move from ``pending`` to ``outputs``; one
        that raised is re-run alone, inline, at once.  A non-``None``
        return is the reason the still-pending partitions should move
        down the ladder (a stall, or the dispatch guard's expiry);
        whatever the exit, the partitions still running are abandoned —
        an abandoned partition must not outlive its query.
        """
        policy = self.policy
        queue = sorted(pending)
        running: dict[int, _Lane] = {}
        try:
            while queue or running:
                while queue and len(running) < rung:
                    index = queue.pop(0)
                    lane = running[index] = _Lane()
                    lane.future = _submit(rung, submit[index], lane if self.supervised else None)
                if self.governance is not None:
                    # A typed error here abandons the rest with the query.
                    self.governance.check("parallel supervisor")
                # Block until a partition finishes, but no longer than
                # to the next deadline or stall/guard expiry, nor than
                # poll_interval (the caller's checkpoint above).
                now = time.monotonic()
                due = [lane.due(lane.beat, policy) for lane in running.values()]
                due.append(now + policy.poll_interval)
                if self.governance is not None and self.governance.deadline is not None:
                    due.append(self.governance.deadline)
                wait(
                    [lane.future for lane in running.values()],
                    max(0.0, min(due) - now),
                    FIRST_COMPLETED,
                )
                for index in sorted(running):
                    future = running[index].future
                    if not future.done():
                        continue
                    del running[index]
                    error = future.exception()
                    if isinstance(error, _Stopped):
                        self.governance.check("parallel supervisor")
                    if isinstance(error, GovernanceError):
                        raise error  # its own budget: typed, final
                    if error is None:
                        self.pool_ran = True
                        # A success only closes the breaker if this
                        # partition ran clean the whole query — recovering
                        # on retry must not erase the failure it recovered
                        # from, or a flaky partition could never trip.
                        if self.breaker is not None and index not in self.tainted:
                            self.breaker.record_success(self.keys[index])
                        self.outputs[index] = future.result()
                    else:
                        # Retry of only the failed partition; its failed
                        # attempt produced no output, so re-running it
                        # inline keeps the accounting exactly-once.
                        reason = f"{type(error).__name__}: {error}"
                        self._fail(index)
                        flight.record(
                            "parallel.retry", self.label, partition=index, reason=reason
                        )
                        self.notes.append(
                            f"partition {index} failed ({reason}); retried inline"
                        )
                        self.outputs[index] = _execute_task(self.base[index])
                    del pending[index]
                now = time.monotonic()
                for index in sorted(running):
                    lane = running[index]
                    beat = lane.beat
                    if now <= lane.due(beat, policy):
                        continue
                    if beat is None:
                        return f"dispatch guard expired after {policy.max_dispatch_seconds:.0f}s"
                    silent = now - beat
                    flight.record(
                        "parallel.stall", self.label, partition=index, silent_s=round(silent, 3)
                    )
                    self._fail(index)
                    return f"partition {index} stalled (no heartbeat for {silent:.2f}s)"
            return None
        finally:
            # An abandoned partition's outcome is never read: its query
            # is over, and whatever it raises stops it, nothing more.
            for lane in running.values():
                lane.future.cancel()  # one still queued never starts
                lane.abandon.set()


# --- merging ---------------------------------------------------------------------


def _merge_accounting(context: ExecutionContext, outputs: list[WorkerOutput]) -> None:
    """Fold partition events and corruption into the caller's, exactly once.

    Adjacent partitions both decode the pages straddling their boundary,
    so a corrupt boundary page would be reported twice; deduplicating
    by ``(file, page)`` keeps the merged fault list identical to a
    serial salvage scan's.
    """
    seen = {(fault.file, fault.page) for fault in context.corruption.faults}
    for out in outputs:
        context.events.merge(out.context.events)
        context.corruption.pages_scanned += out.context.corruption.pages_scanned
        for fault in out.context.corruption.faults:
            key = (fault.file, fault.page)
            if key in seen:
                continue
            seen.add(key)
            context.corruption.faults.append(fault)


def _unmerged_faults(context: ExecutionContext, outputs) -> int:
    """The distinct ``(file, page)`` faults of ``outputs`` that the
    caller's report does not hold yet: what :func:`_merge_accounting`
    would add to it."""
    seen = {(fault.file, fault.page) for fault in context.corruption.faults}
    faults = (fault for out in outputs for fault in out.context.corruption.faults)
    return len({(fault.file, fault.page) for fault in faults} - seen)


def _merge_plan(
    context: ExecutionContext,
    outputs: list[WorkerOutput],
    query: Query,
    notes: list[str] | None = None,
) -> tuple[Operator, Operator]:
    """The caller-side merge plan; returns ``(plan root, gather anchor)``.

    Not the serial tree of :func:`~repro.engine.plan.build_plan` but
    its reassembly: the final operator again, over the partitions'
    already-shaped outputs.  The anchor is the node worker span trees
    are attached under.  Supervision ``notes`` are folded into the
    gather node's detail so EXPLAIN ANALYZE shows *why* a query degraded.
    """
    blocks = [
        Block(columns=out.columns, positions=out.positions) for out in outputs
    ]
    detail = f"{len(blocks)} partition output(s)"
    if notes:
        detail += " | " + "; ".join(notes)
    if query.aggregate is not None:
        gather = GatherOperator(context, blocks, detail=detail)
        return MergePartials(context, gather, query.aggregate), gather
    if query.order_by:
        merge: Operator = MergeSortedRuns(
            context, blocks, query.order_by, detail=detail
        )
        anchor = merge
        if query.limit is not None:
            merge = Limit(context, merge, query.limit)
        return merge, anchor
    if query.topn is not None:
        key, count, descending = query.topn
        merged = concat_blocks([block for block in blocks if len(block)] or blocks)
        # Candidates arrive in per-worker key order; re-ordering by
        # global position makes the caller's stable tie-breaking see
        # the same input order the serial TopN did.
        order = np.argsort(merged.positions)
        candidates = Block(
            columns={name: col[order] for name, col in merged.columns.items()},
            positions=merged.positions[order],
        )
        gather = GatherOperator(context, [candidates], detail=detail)
        return TopN(context, gather, key=key, count=count, descending=descending), gather
    gather = GatherOperator(context, blocks, detail=detail)
    if query.limit is not None:
        return Limit(context, gather, query.limit), gather
    return gather, gather


# --- public API ------------------------------------------------------------------


def parallel_query(
    table: Table,
    query: ScanQuery | Query,
    *,
    workers: int = 2,
    partitions: int | None = None,
    context: ExecutionContext | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    salvage: bool = False,
    aggregate: AggregateSpec | None = None,
    sort_based: bool = False,
    order_by: tuple[str, ...] = (),
    limit: int | None = None,
    topn: tuple[str, int, bool] | None = None,
    policy: SupervisionPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    inject_crash: int | None = None,
    inject_stall: tuple[int, float] | None = None,
    info: dict | None = None,
) -> QueryResult:
    """Execute one decomposable query across row-range partitions.

    ``table`` is split logically into ``partitions`` contiguous row
    ranges, default one per worker, run ``workers`` at a time on the
    partition pool; ``workers <= 1`` runs them inline through the same
    merge.  ``query`` is a whole :class:`~repro.engine.query.Query`, or
    a :class:`~repro.engine.query.ScanQuery` whose result shape comes as
    keywords (``aggregate`` + ``sort_based``, ``order_by``, ``limit``,
    ``topn``).  A merge join is not decomposable across partitions and
    raises :class:`~repro.errors.PlanError`: it runs on the serial
    executor (:func:`~repro.engine.executor.run_scan`).

    ``info``, when given a dict, is filled with ``mode``, ``workers``,
    ``partitions``, ``fallback_reason``, the ``governance`` notes and
    ``dispatch_ms`` (submit to the last partition output).

    Under ``context.governance`` every partition holds its deadline and
    cancellation token, so a cancel or an expiry stops them mid-scan;
    its memory budget is split evenly across the partitions, and the
    supervisor checks it at least every ``policy.poll_interval``.
    ``breaker`` is the per-``Database`` circuit breaker.
    ``inject_crash`` / ``inject_stall`` are the chaos harness's fault
    hooks (an exception, a mid-scan wait); they apply to the first
    dispatch only, so recovery paths always run clean.
    """
    if workers < 1:
        raise PlanError(f"worker count must be positive: {workers}")
    if isinstance(query, ScanQuery):
        query = Query(query, aggregate, sort_based, order_by, limit, topn)
    elif aggregate is not None or sort_based or order_by or limit is not None or topn:
        raise PlanError("pass the result shape in the Query or as keywords, not both")
    if query.join is not None:
        raise PlanError(
            "a merge join is not decomposable across partitions; "
            "run it on the serial executor"
        )

    context = context or ExecutionContext()
    if salvage:
        context = replace(context, strict_integrity=False)
    trace = context.tracer is not None
    governance = context.governance
    policy = policy or SupervisionPolicy()

    ranges = partition_ranges(
        table.num_rows, partitions if partitions is not None else workers
    )
    query.scan.validate_against(table.schema)
    # Only supervised queries (governance, a breaker, or an injected
    # stall) pay for a partition-side context that beats.
    supervised = any(arg is not None for arg in (governance, breaker, inject_stall))

    # Each partition gets an even share of the query's memory budget —
    # its materializing working set is ~1/N of the serial one.
    budget_share = None
    if governance is not None and governance.memory_budget is not None:
        budget_share = max(1, governance.memory_budget // len(ranges))
    tasks = [
        WorkerTask(index, table, query, row_range, column_scanner, context, budget_share)
        for index, row_range in enumerate(ranges)
    ]

    mode = "inline"
    notes: list[str] = []
    # The partition outputs in hand, counted should the query fail.
    held: Iterable[WorkerOutput] = ()
    before = len(context.corruption.faults)
    started = time.perf_counter()
    try:
        if workers > 1 and len(tasks) > 1:
            base = {task.index: task for task in tasks}
            first = dict(base)
            if inject_crash in first:
                first[inject_crash] = replace(first[inject_crash], crash=True)
            if inject_stall is not None and inject_stall[0] in first:
                index, seconds = inject_stall
                first[index] = replace(first[index], stall_seconds=float(seconds))
            supervision = _Supervision(
                base=base,
                first=first,
                keys={
                    task.index: (table.schema.name, task.index, task.row_range)
                    for task in tasks
                },
                governance=governance,
                policy=policy,
                breaker=breaker,
                supervised=supervised,
                notes=notes,
            )
            held = supervision.outputs.values()
            supervision.run(min(workers, len(tasks)))
            outputs = list(held)
            if not supervision.pool_ran:
                mode = "fallback-serial"
            elif notes:
                mode = "parallel-degraded"
            else:
                mode = "parallel"
        else:
            held = outputs = []
            for task in tasks:
                outputs.append(_execute_task(task))
        dispatch_seconds = time.perf_counter() - started
        if mode != "inline":
            flight.record(
                "parallel.dispatch", context.label, mode=mode, seconds=dispatch_seconds
            )

        outputs.sort(key=lambda out: out.index)
        _merge_accounting(context, outputs)
        if governance is not None:
            for out in outputs:
                own = out.context.governance
                for event in own.outcomes if own is not governance else ():
                    governance.note(f"partition {out.index}: {event}")
            for event in notes:
                governance.note(event)

        plan, anchor = _merge_plan(context, outputs, query, notes=notes)
        result = execute_plan(plan)
    except ReproError as exc:
        # A failed query counts the pages its finished partitions dropped,
        # as a serial one counts those it dropped before it failed.
        salvaged = len(context.corruption.faults) - before
        flight.record(
            "query.failed",
            context.label,
            error=type(exc).__name__,
            salvaged=salvaged + _unmerged_faults(context, held),
        )
        raise
    finally:
        # The partitions timed their decodes into the caller's list.
        context.observe_decodes()

    if trace:
        tracer = context.tracer
        anchor_span = tracer.span_for(anchor)
        for out in outputs:
            spans = out.context.tracer
            tracer.attach_subtree(
                spans.roots,
                spans.slices,
                track=out.index + 1,
                under=anchor_span,
                epoch_ns=spans.epoch_ns,
            )

    if info is not None:
        info.update(
            mode=mode,
            workers=workers,
            partitions=len(tasks),
            fallback_reason=notes[0] if notes else None,
            governance=list(notes),
            dispatch_ms=dispatch_seconds * 1e3,
        )
    # One finished query, whichever mode ran its partitions.
    flight.record(
        "query.done",
        context.label,
        latency_s=time.perf_counter() - started,
        rows=result.num_tuples,
        salvaged=len(context.corruption.faults) - before,
    )
    return result
