"""Multi-core parallel query execution over horizontal partitions.

The engine stays single-threaded *per plan* (the paper's Section 4
design); parallelism comes from running one plan per row-range
partition in a small persistent **fleet** of worker processes and
merging the materialized partials in the parent:

* plain selections: concatenate worker blocks in partition order
  (already global Record-ID order), fixing up positions of physically
  partitioned shards by their ``row_start``;
* aggregates: each worker computes decomposed partials
  (count/sum/min/max, sum+count for AVG — see
  :func:`repro.engine.plan.decompose_aggregate`) and
  :class:`~repro.engine.operators.gather.MergePartials` reduces them
  with the serial ``HashAggregate``'s arithmetic;
* sorted output: per-partition sorted runs, k-way merged by
  :class:`~repro.engine.operators.gather.MergeSortedRuns`;
* LIMIT / top-N: each worker keeps its first/best ``k``, the parent
  applies the same operator over the recombined candidates (for top-N,
  candidates are re-ordered by global position first so tie-breaking
  matches the serial stable sort).

Cost accounting is exactly-once: each worker runs under a fresh
:class:`~repro.engine.context.ExecutionContext` and its
:class:`~repro.cpusim.events.CostEvents` /
:class:`~repro.storage.scrub.CorruptionReport` are merged into the
parent context one time, before the (traced) merge plan runs.
Boundary pages decoded by two adjacent workers are deduplicated by
``(file, page)`` so a salvage scan's fault list matches the serial
scan's.  Worker span trees are stitched into the parent trace under
the gather node (per-worker Perfetto tracks); the tracer invariant
``total_events() == plan total`` survives stitching.

Dispatch is event-driven: each worker hangs off its own duplex pipe
and the supervisor blocks in :func:`multiprocessing.connection.wait`
on the busy workers' pipes and process sentinels, so a finished
partition or a dead worker wakes it at once.  Tables are **resident**:
a worker keeps the tables it was forked with or sent, and later tasks
name them by token (:func:`_residency_token` says what invalidates one).

Failure policy is a **supervision ladder** (see
:mod:`repro.engine.governance`), not discard-all-or-nothing:

1. *kill-and-retry one partition* — a worker exception or death
   re-runs only that partition inline (the completed partitions'
   results are kept; the retried partition's events are counted exactly
   once because the failed attempt produced no output to merge);
2. *stall detection* — supervised workers beat into a shared-memory
   slot; one alive but silent past the policy's stall timeout is
   terminated with every other busy worker (the only way to reap a
   wedged one) and the unfinished partitions move down the ladder;
3. *degrade workers 4→2→1→serial* — each such failure halves the
   worker count; the last rung runs the remaining partitions inline;
4. *circuit breaker* — a partition that keeps failing (per
   :class:`~repro.database.Database` instance) is routed straight to a
   salvage-mode serial scan without burning another worker on it.

A parent- or worker-side deadline/cancellation surfaces as a typed
:class:`~repro.errors.GovernanceError` (never a hang); busy workers
are terminated first so stragglers die with the query.
``KeyboardInterrupt`` terminates and joins the whole fleet — workers
are reaped and their pipes closed, no zombies survive Ctrl-C.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait

import numpy as np

from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan
from repro.engine.governance import (
    CircuitBreaker,
    GovernanceError,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.operators.base import Operator
from repro.engine.operators.gather import (
    GatherOperator,
    MergePartials,
    MergeSortedRuns,
)
from repro.engine.operators.limit import Limit, TopN
from repro.engine.plan import ColumnScannerKind, build_plan, decompose_aggregate
from repro.engine.query import AggregateSpec, Query, ScanQuery
from repro.errors import PlanError
from repro.obs import recorder as flight
from repro.obs.trace import SpanTracer
from repro.storage.partition import PartitionedTable, partition_ranges
from repro.storage.pagefile import PagedFile
from repro.storage.scrub import CorruptionReport
from repro.storage.table import ColumnTable, Table

__all__ = [
    "WorkerCrash",
    "parallel_query",
    "shutdown_pools",
]

#: Tables a worker keeps resident (most recently used); bounds its memory.
_RESIDENT_TABLES = 4

#: Process name of every fleet worker.
_WORKER_NAME = "repro-parallel-worker"

#: Governance tick on which an injected chaos action (kill/stall) fires
#: inside the worker — late enough to be genuinely mid-scan.
_CHAOS_ACTION_TICK = 3

#: Exit code of a chaos hard-kill (``os._exit``), distinguishable from
#: a Python crash in ``parallel.worker_died`` events.
_CHAOS_KILL_EXIT = 17


class WorkerCrash(RuntimeError):
    """A worker failed under its task: injected crash or process death."""


@dataclass(frozen=True)
class WorkerTask:
    """Everything one worker needs to run its partition's plan."""

    index: int
    table: Table | None          #: ``None``: the worker's resident copy
    query: Query                 #: the whole request, shape included
    row_range: tuple[int, int] | None
    position_offset: int
    column_scanner: ColumnScannerKind
    calibration: Calibration
    block_size: int
    compressed_execution: bool
    strict_integrity: bool
    trace: bool
    crash: bool = False          #: test hook: raise instead of executing
    # --- governance (see repro.engine.governance) ----------------------
    deadline: float | None = None     #: absolute ``time.monotonic()`` s
    memory_budget: int | None = None  #: this partition's budget share
    heartbeat: bool = False           #: beat into the worker's slot
    heartbeat_interval: float = 0.05
    token: tuple | None = None        #: residency key of ``table``, if any
    kill: bool = False                #: chaos hook: hard-exit mid-scan
    stall_seconds: float = 0.0        #: chaos hook: sleep mid-scan once


@dataclass
class WorkerOutput:
    """One worker's materialized partial result plus its accounting."""

    index: int
    columns: dict[str, np.ndarray]
    positions: np.ndarray
    events: CostEvents
    corruption: CorruptionReport
    span_roots: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    epoch_ns: int = 0
    #: Governance outcomes recorded inside the worker (narrowing, etc.).
    outcomes: list = field(default_factory=list)
    memory_peak: int = 0


def _worker_governance(task: WorkerTask, beat=None) -> QueryContext | None:
    """The worker-side lifecycle context for one partition, if any.

    The deadline is an absolute ``time.monotonic()`` value: under the
    fork start method parent and child share the clock, so the parent's
    deadline is enforced inside the worker too.  The tick hook writes
    ``beat`` (the worker's shared-memory heartbeat slot) and fires the
    chaos injections (hard kill / stall) a few ticks in — i.e.
    genuinely mid-scan.
    """
    beating = task.heartbeat and beat is not None
    if not (
        task.deadline is not None
        or task.memory_budget is not None
        or beating
        or task.kill
        or task.stall_seconds
    ):
        return None
    governance = QueryContext(
        deadline=task.deadline,
        memory_budget=task.memory_budget,
        label=f"partition {task.index}",
    )
    acted = False

    def on_tick(gov: QueryContext) -> None:
        nonlocal acted
        now = time.monotonic()
        # The supervisor stamped the slot when it sent the task.
        if beating and now - beat.value >= task.heartbeat_interval:
            beat.value = now
        if not acted and gov.ticks >= _CHAOS_ACTION_TICK:
            acted = True
            if task.kill:
                os._exit(_CHAOS_KILL_EXIT)
            if task.stall_seconds:
                time.sleep(task.stall_seconds)

    governance.on_tick = on_tick
    return governance


def _execute_task(
    task: WorkerTask, governance: QueryContext | None = None, beat=None
) -> WorkerOutput:
    """Run one partition's plan (in a worker process or inline).

    ``governance`` overrides the task-derived worker context: inline
    execution in the parent passes the query's own
    :class:`~repro.engine.governance.QueryContext` so the shared
    cancellation token and budget accounting stay live.  ``beat`` is
    the heartbeat slot of the fleet worker running the task.
    """
    if task.crash:
        raise WorkerCrash(f"injected crash in worker {task.index}")
    table = task.table  # the worker loop put its resident copy back
    owned = governance is None
    if owned:
        governance = _worker_governance(task, beat)
    tracer = SpanTracer() if task.trace else None
    context = ExecutionContext(
        calibration=task.calibration,
        block_size=task.block_size,
        compressed_execution=task.compressed_execution,
        strict_integrity=task.strict_integrity,
        tracer=tracer,
        governance=governance,
    )

    def run(query: Query) -> QueryResult:
        return execute_plan(
            build_plan(context, table, query, task.column_scanner, task.row_range)
        )

    if task.query.aggregate is not None:
        # One plan per decomposed partial (AVG is SUM + COUNT) over the
        # same partition; their columns share the group-by key.
        partials = [
            run(replace(task.query, aggregate=spec))
            for spec in decompose_aggregate(task.query.aggregate)
        ]
        columns = dict(partials[0].columns)
        for extra in partials[1:]:
            for name, values in extra.columns.items():
                columns.setdefault(name, values)
        positions = partials[0].positions
    else:
        result = run(task.query)
        columns = result.columns
        positions = result.positions
        if task.position_offset:
            positions = positions + task.position_offset
    return WorkerOutput(
        index=task.index,
        columns=columns,
        positions=positions,
        events=context.events,
        corruption=context.corruption,
        span_roots=tracer.roots if tracer else [],
        slices=tracer.slices if tracer else [],
        epoch_ns=tracer.epoch_ns if tracer else 0,
        # With an overriding (parent) governance the outcomes already
        # live on the caller's object — don't report them twice.
        outcomes=list(governance.outcomes) if owned and governance else [],
        memory_peak=governance.memory_peak if owned and governance else 0,
    )


# --- worker fleet ----------------------------------------------------------------


def _residency_token(table: Table) -> tuple | None:
    """The key a worker may keep ``table`` resident under, or ``None``.

    Pages are append-only, so ``(id, num_pages)`` per file pins the
    bytes a worker's copy was made from: an append changes a page
    count, a ``Database.merge`` swap installs new objects.  The parent
    mirrors a worker's tokens with weak references to their tables: a
    table freed and its ``id`` recycled leaves a dead reference, and
    the newcomer is shipped like any unknown table.  Only files that
    are exactly :class:`PagedFile` qualify — fault and slow-read wrappers
    are stateful subclasses whose state each task must receive afresh,
    so their tables ship with every task.
    """
    if isinstance(table, ColumnTable):
        files = [column_file.file for column_file in table.column_files.values()]
    else:
        files = [table.file]
    if any(type(file) is not PagedFile for file in files):
        return None
    return (id(table), *((id(file), file.num_pages) for file in files))


def _remember(resident: OrderedDict, token: tuple, held=None) -> None:
    """Mark ``token`` most recently used, storing ``held`` when given.

    The parent runs this on its mirror of a worker's resident set (a
    weak reference per table) for every message it sends, the worker
    (the table itself) for every message it receives — the same calls
    in the same order, so both evict the same tokens.
    """
    if held is not None:
        resident[token] = held
    resident.move_to_end(token)
    while len(resident) > _RESIDENT_TABLES:
        resident.popitem(last=False)


def _worker_main(conn, parent_end, beat, resident: OrderedDict) -> None:
    """A fleet worker: receive ``(task, table or None)``, run, reply; until EOF."""
    # The fork copied the parent's end of every pipe, this worker's own
    # included; held open here they would hide the parent's death.
    parent_end.close()
    for sibling in _FLEET:
        sibling.conn.close()
    _FLEET.clear()
    try:
        while True:
            task, table = conn.recv()
            try:
                if task.table is None:
                    _remember(resident, task.token, table)
                    task = replace(task, table=resident[task.token])
                reply = _execute_task(task, beat=beat)
            except Exception as exc:  # noqa: BLE001 - the supervisor decides
                reply = exc
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent gone or Ctrl-C: exit quietly


@dataclass(eq=False)
class _Worker:
    """The parent's handle on one fleet worker."""

    process: multiprocessing.Process
    conn: object                 #: parent end of the worker's duplex pipe
    beat: object                 #: shared-memory double: last heartbeat
    resident: OrderedDict        #: mirror of its tables: token → weakref


_FLEET: list[_Worker] = []


def _spawn(preload: dict) -> _Worker:
    """Start one worker holding ``preload`` (token → table) from birth."""
    forks = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forks else None)
    conn, child = context.Pipe()
    beat = context.RawValue("d", 0.0)
    process = context.Process(
        target=_worker_main,
        args=(child, conn, beat, OrderedDict(preload)),
        name=_WORKER_NAME,
        daemon=True,
    )
    process.start()
    child.close()
    mirror = OrderedDict((token, weakref.ref(table)) for token, table in preload.items())
    worker = _Worker(process, conn, beat, mirror)
    _FLEET.append(worker)
    return worker


def _retire(worker: _Worker) -> None:
    """Terminate and reap one worker (idempotent)."""
    if worker in _FLEET:
        _FLEET.remove(worker)
    worker.conn.close()
    worker.process.terminate()
    worker.process.join()


def _staff(count: int, preload: dict, wanted: set) -> list[_Worker]:
    """``count`` live workers, forking (with ``preload``) what is missing.

    Workers already holding one of the ``wanted`` tokens come first.
    """
    for worker in [w for w in _FLEET if not w.process.is_alive()]:
        _retire(worker)
    while len(_FLEET) < count:
        _spawn(preload)
    return sorted(_FLEET, key=lambda w: wanted.isdisjoint(w.resident))[:count]


def shutdown_pools() -> None:
    """Terminate the worker fleet (atexit / test teardown)."""
    for worker in list(_FLEET):
        _retire(worker)


atexit.register(shutdown_pools)


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
    supervised: bool  #: workers beat; silence past ``stall_timeout`` is a stall
    preload: dict     #: ``{token: table}`` a newly forked worker is born holding
    notes: list[str]
    outputs: dict[int, WorkerOutput] = field(default_factory=dict)
    tainted: set[int] = field(default_factory=set)
    ships: int = 0          #: table copies piped to running workers
    pool_ran: bool = False  #: some partition completed in a worker (mode)

    @property
    def label(self) -> str | None:
        return self.governance.label if self.governance is not None else None

    def run(self, workers: int) -> None:
        """Fill ``outputs`` for every partition, walking down the ladder."""
        pending = dict(self.base)
        # Breaker-open partitions never reach a worker: they are served
        # by salvage-mode serial scans (skip-don't-crash) straight away.
        if self.breaker is not None:
            for index in sorted(pending):
                if self.breaker.is_open(self.keys[index]):
                    task = replace(self.base[index], strict_integrity=False)
                    self.outputs[index] = _execute_task(task, self.governance)
                    del pending[index]
                    self.notes.append(
                        f"breaker open: partition {index} routed to "
                        "salvage serial scan"
                    )
        submit = self.first
        rung = min(workers, len(pending))
        while pending and rung >= 1:
            reason = self._run_rung(pending, submit, rung)
            if reason is None:
                break
            submit = self.base
            flight.record(
                "parallel.degrade",
                self.label,
                workers_from=rung,
                workers_to=rung // 2,
                reason=reason,
            )
            self.notes.append(
                f"degraded workers {rung}→{rung // 2 or 'serial'}: {reason}"
            )
            rung //= 2
        for index in sorted(pending):
            self.outputs[index] = _execute_task(self.base[index], self.governance)

    def _fail(self, index: int) -> None:
        self.tainted.add(index)
        if self.breaker is not None:
            self.breaker.record_failure(self.keys[index])

    def _send(self, worker: _Worker, task: WorkerTask) -> None:
        """Hand ``task`` to ``worker``, with its table if the worker lacks it."""
        token, table, ref = task.token, None, None
        if token is not None:
            held = worker.resident.get(token)
            if held is None or held() is not task.table:
                self.ships += 1
                table, ref = task.table, weakref.ref(task.table)  # rides along, once
            _remember(worker.resident, token, ref)
            task = replace(task, table=None)
        worker.beat.value = time.monotonic()
        worker.conn.send((task, table))

    def _collect(self, worker: _Worker, index: int) -> WorkerOutput | BaseException:
        """The reply of a worker whose pipe or sentinel fired."""
        try:
            if worker.conn.poll():
                return worker.conn.recv()
        except (EOFError, OSError):
            pass  # died mid-reply
        _retire(worker)  # reaps it: the exit code is now known
        flight.record(
            "parallel.worker_died",
            self.label,
            pid=worker.process.pid,
            exitcode=worker.process.exitcode,
            partition=index,
        )
        return WorkerCrash(
            f"worker pid {worker.process.pid} died "
            f"(exit code {worker.process.exitcode})"
        )

    def _run_rung(
        self, pending: dict[int, WorkerTask], submit: dict[int, WorkerTask], rung: int
    ) -> str | None:
        """One rung of the ladder: ``rung`` fleet workers plus supervision.

        Completed partitions move from ``pending`` to ``outputs``.  A
        failed task or a dead worker is recovered at once by re-running
        just that partition inline (kill-and-retry).  A non-``None``
        return is the reason the still-pending partitions should move
        down the ladder (stall, fleet-level error, guard expiry);
        whatever the exit, workers still busy are terminated — an
        abandoned task must not answer the next query.
        """
        policy = self.policy
        queue = sorted(pending)
        running: dict[int, _Worker] = {}
        # A worker that does not beat is silent since its dispatch.
        patience = (
            policy.stall_timeout if self.supervised else policy.max_dispatch_seconds
        )
        try:
            idle = _staff(rung, self.preload, {t.token for t in pending.values()})
            while queue or running:
                while queue and idle:
                    index = queue.pop(0)
                    token = submit[index].token
                    worker = next((w for w in idle if token in w.resident), idle[-1])
                    idle.remove(worker)
                    # Busy before the send: if that raises, ``finally``
                    # retires a worker whose mirror may now be wrong.
                    running[index] = worker
                    self._send(worker, submit[index])
                if self.governance is not None:
                    # A typed error here kills the stragglers with the query.
                    self.governance.check("parallel supervisor")
                # Block until a pipe or a sentinel fires, but no longer
                # than to the next deadline or stall/guard expiry, nor
                # than poll_interval (the token can only be polled).
                now = time.monotonic()
                due = [w.beat.value + patience for w in running.values()]
                due.append(now + policy.poll_interval)
                if self.governance is not None and self.governance.deadline is not None:
                    due.append(self.governance.deadline)
                ready = wait(
                    [h for w in running.values() for h in (w.conn, w.process.sentinel)],
                    max(0.0, min(due) - now),
                )
                for index in sorted(running):
                    worker = running[index]
                    if worker.conn not in ready and worker.process.sentinel not in ready:
                        continue
                    del running[index]
                    reply = self._collect(worker, index)
                    if isinstance(reply, GovernanceError):
                        # A worker hit its own deadline/budget: typed, final.
                        raise reply
                    idle.append(
                        worker if worker.process.is_alive() else _spawn(self.preload)
                    )
                    if isinstance(reply, WorkerOutput):
                        self.pool_ran = True
                        # A success only closes the breaker if this
                        # partition ran clean the whole query — recovering
                        # on retry must not erase the failure it recovered
                        # from, or a flaky partition could never trip.
                        if self.breaker is not None and index not in self.tainted:
                            self.breaker.record_success(self.keys[index])
                    else:
                        # Kill-and-retry of only the failed partition; its
                        # crashed attempt produced no output, so re-running
                        # it inline keeps the accounting exactly-once.
                        reason = f"{type(reply).__name__}: {reply}"
                        self._fail(index)
                        flight.record(
                            "parallel.retry", self.label, partition=index, reason=reason
                        )
                        self.notes.append(
                            f"partition {index} failed ({reason}); retried inline"
                        )
                        reply = _execute_task(self.base[index], self.governance)
                    self.outputs[index] = reply
                    del pending[index]
                now = time.monotonic()
                for index in sorted(running):
                    silent = now - running[index].beat.value
                    if silent <= patience:
                        continue
                    if not self.supervised:
                        return f"dispatch guard expired after {patience:.0f}s"
                    flight.record(
                        "parallel.stall",
                        self.label,
                        partition=index,
                        silent_s=round(silent, 3),
                    )
                    self._fail(index)
                    return f"partition {index} stalled (no heartbeat for {silent:.2f}s)"
            return None
        except KeyboardInterrupt:
            # Reap every child and close its pipes before surfacing
            # Ctrl-C: no zombies survive an interrupt mid-query.
            shutdown_pools()
            raise
        except OSError as exc:
            return f"fleet failure ({type(exc).__name__}: {exc})"
        finally:
            for worker in running.values():
                _retire(worker)


# --- merging ---------------------------------------------------------------------


def _merge_accounting(context: ExecutionContext, outputs: list[WorkerOutput]) -> None:
    """Fold worker events and corruption into the parent, exactly once.

    Adjacent workers both decode the pages straddling their boundary,
    so a corrupt boundary page would be reported twice; deduplicating
    by ``(file, page)`` keeps the merged fault list identical to a
    serial salvage scan's.
    """
    seen = {(fault.file, fault.page) for fault in context.corruption.faults}
    for out in outputs:
        context.events.merge(out.events)
        context.corruption.pages_scanned += out.corruption.pages_scanned
        for fault in out.corruption.faults:
            key = (fault.file, fault.page)
            if key in seen:
                continue
            seen.add(key)
            context.corruption.faults.append(fault)


def _merge_plan(
    context: ExecutionContext,
    outputs: list[WorkerOutput],
    query: Query,
    notes: list[str] | None = None,
) -> tuple[Operator, Operator]:
    """The parent-side merge plan; returns ``(plan root, gather anchor)``.

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
        # global position makes the parent's stable tie-breaking see
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
    table: Table | PartitionedTable,
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
    inject_kill: int | None = None,
    inject_stall: tuple[int, float] | None = None,
    info: dict | None = None,
) -> QueryResult:
    """Execute one decomposable query across row-range partitions.

    ``table`` may be a plain table (split logically into ``partitions``
    contiguous row ranges, default one per worker) or a
    :class:`~repro.storage.partition.PartitionedTable` (its physical
    shards are used as-is).  ``workers <= 1`` runs the same
    partition-and-merge machinery in-process, which keeps the merge
    path — and its cost accounting — testable without a pool.

    ``query`` is a whole :class:`~repro.engine.query.Query`, or a
    :class:`~repro.engine.query.ScanQuery` whose result shape comes as
    keywords — ``aggregate`` (+ ``sort_based``), ``order_by``
    (optionally with ``limit``), plain ``limit``, or ``topn``; the
    combinations are checked by ``Query`` itself.  A merge join is not
    decomposable across partitions and raises
    :class:`~repro.errors.PlanError`: it runs on the serial executor
    (:func:`~repro.engine.executor.run_scan`).

    Workers keep tables resident: a new worker is forked holding the
    table, a running one that lacks it is sent it once over its pipe.
    ``info``, when given a dict, is filled with execution diagnostics
    (``mode``, ``partitions``, ``workers``, ``fallback_reason``,
    ``governance`` notes, ``dispatch_ms`` from submit to the last
    output, and ``tables_shipped`` — copies piped to running workers, 0
    when all held the table).

    When ``context.governance`` is set, its deadline is enforced inside
    every worker (shared monotonic clock under fork), its memory budget
    is split evenly across the partitions, and the supervisor checks the
    parent-side token/deadline at least every ``poll_interval``.  ``policy`` tunes
    the supervision ladder; ``breaker`` is the per-``Database`` circuit
    breaker that routes repeat-offender partitions straight to salvage
    serial scans.  ``inject_crash``/``inject_kill``/``inject_stall``
    are fault hooks (exception, hard ``os._exit``, mid-scan sleep) used
    by the chaos harness; injections apply to the first dispatch only,
    so recovery paths always run clean.
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
        context.strict_integrity = False
    trace = context.tracer is not None
    governance = context.governance
    policy = policy or SupervisionPolicy()

    # Partition list: (table, residency token, row_range, position_offset)
    # per task; ``preload`` is what a newly forked worker is born holding.
    preload: dict = {}
    if isinstance(table, PartitionedTable):
        shards = [
            (part.table, _residency_token(part.table), None, part.row_start)
            for part in table.partitions
        ]
        schema_table: Table = table.partitions[0].table
    else:
        count = partitions if partitions is not None else workers
        token = _residency_token(table)
        shards = [
            (table, token, (lo, hi), 0)
            for lo, hi in partition_ranges(table.num_rows, count)
        ]
        schema_table = table
        if token is not None:
            preload[token] = table
    query.scan.validate_against(schema_table.schema)
    # Only supervised queries (governance, a breaker, or injected worker
    # faults) pay for a worker-side context that beats.
    supervised = any(
        arg is not None for arg in (governance, breaker, inject_kill, inject_stall)
    )

    # Each partition gets an even share of the query's memory budget —
    # its materializing working set is ~1/N of the serial one.
    budget_share = None
    if governance is not None and governance.memory_budget is not None:
        budget_share = max(1, governance.memory_budget // len(shards))
    tasks = [
        WorkerTask(
            index=index,
            table=shard_table,
            query=query,
            row_range=row_range,
            position_offset=offset,
            column_scanner=column_scanner,
            calibration=context.calibration,
            block_size=context.block_size,
            compressed_execution=context.compressed_execution,
            strict_integrity=context.strict_integrity,
            trace=trace,
            deadline=governance.deadline if governance else None,
            memory_budget=budget_share,
            heartbeat=supervised,
            heartbeat_interval=policy.heartbeat_interval,
            token=token,
        )
        for index, (shard_table, token, row_range, offset) in enumerate(shards)
    ]

    mode = "inline"
    notes: list[str] = []
    ships = 0
    started = time.perf_counter()
    if workers > 1 and len(tasks) > 1:
        base = {task.index: task for task in tasks}
        first = dict(base)
        if inject_crash in first:
            first[inject_crash] = replace(first[inject_crash], crash=True)
        if inject_kill in first:
            first[inject_kill] = replace(first[inject_kill], kill=True)
        if inject_stall is not None and inject_stall[0] in first:
            index, seconds = inject_stall
            first[index] = replace(first[index], stall_seconds=float(seconds))
        supervision = _Supervision(
            base=base,
            first=first,
            keys={
                task.index: (schema_table.schema.name, task.index, task.row_range)
                for task in tasks
            },
            governance=governance,
            policy=policy,
            breaker=breaker,
            supervised=supervised,
            preload=preload,
            notes=notes,
        )
        supervision.run(min(workers, len(tasks)))
        outputs = list(supervision.outputs.values())
        ships = supervision.ships
        if not supervision.pool_ran:
            mode = "fallback-serial"
        elif notes:
            mode = "parallel-degraded"
        else:
            mode = "parallel"
    else:
        outputs = [_execute_task(task, governance) for task in tasks]
    dispatch_seconds = time.perf_counter() - started
    if mode != "inline":
        flight.record(
            "parallel.dispatch",
            context.label,
            mode=mode,
            seconds=dispatch_seconds,
            ships=ships,
        )

    outputs.sort(key=lambda out: out.index)
    _merge_accounting(context, outputs)
    if governance is not None:
        for out in outputs:
            for event in out.outcomes:
                governance.note(f"partition {out.index}: {event}")
        for event in notes:
            governance.note(event)

    plan, anchor = _merge_plan(context, outputs, query, notes=notes)
    result = execute_plan(plan)

    if trace:
        tracer = context.tracer
        anchor_span = tracer.span_for(anchor)
        for out in outputs:
            tracer.attach_subtree(
                out.span_roots,
                out.slices,
                track=out.index + 1,
                under=anchor_span,
                epoch_ns=out.epoch_ns or None,
            )

    if info is not None:
        info["mode"] = mode
        info["workers"] = workers
        info["partitions"] = len(tasks)
        info["fallback_reason"] = notes[0] if notes else None
        info["governance"] = list(notes)
        info["dispatch_ms"] = dispatch_seconds * 1e3
        info["tables_shipped"] = ships
    # One finished query, whichever mode ran its partitions.
    flight.record(
        "query.done",
        context.label,
        latency_s=time.perf_counter() - started,
        rows=result.num_tuples,
    )
    return result
