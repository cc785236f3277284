"""A small facade tying the subsystems together.

:class:`Database` is the entry point a downstream user wants: register
generated data once, get both physical layouts (plus optional
compression and materialized views), run queries without touching the
plan builders, and ask the analytical model which layout a workload
should use.

    >>> from repro import Database, generate_orders
    >>> db = Database()
    >>> db.create_table(generate_orders(10_000, seed=1))
    >>> result = db.query("ORDERS", select=("O_ORDERDATE", "O_TOTALPRICE"))
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.data.generator import GeneratedTable
from repro.design.materialize import MaterializedView
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, run_scan
from repro.engine.hybrid import build_overlay
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import Predicate, predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import JobHandle, QueryHandle, Scheduler, WorkloadQuery
from repro.errors import ChecksumError, PlanError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ScanMeasurement, measure_scan
from repro.obs import recorder as flight
from repro.obs.export import QueryProfile
from repro.obs.provenance import provenance
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import SpanTracer
from repro.storage.layout import Layout
from repro.storage.scrub import CorruptionReport
from repro.storage.table import Table
from repro.storage.write_store import WriteOptimizedStore
from repro.table_entry import TableEntry


def _governed(
    context: ExecutionContext | None,
    label: str,
    timeout: float | None,
    memory_budget: int | None,
    cancellation: CancellationToken | None,
) -> ExecutionContext | None:
    """The context one facade call runs under: the one governance wiring.

    Without governance arguments that is the caller's context as is.
    With them it is a copy carrying a fresh :class:`QueryContext`; the
    copy shares the caller's event counters, corruption report and
    tracer, so costs still accumulate where the caller reads them,
    while the caller's context itself stays as it was found — good for
    the next governed call whether this one returns or raises.
    """
    if timeout is None and memory_budget is None and cancellation is None:
        return context
    context = context or ExecutionContext()
    if context.governance is not None:
        raise PlanError(
            "pass either a governed context or timeout/budget/"
            "cancellation arguments, not both"
        )
    governance = QueryContext.start(
        timeout=timeout, memory_budget=memory_budget, token=cancellation, label=label
    )
    return replace(context, governance=governance)


class Database:
    """Registered tables in every layout, with query routing on top.

    Every read entry point is the same four steps, each written once:
    resolve (:meth:`_resolve_target`), governed context
    (:func:`_governed`; the scheduler starts its own per submission),
    an executor — serial drain, partition-and-merge, or time-slice —
    and the write-store overlay on the finished result.  DDL, writes,
    merges and integrity sweeps resolve the table's
    :class:`~repro.table_entry.TableEntry` and forward to it.
    """

    def __init__(
        self,
        layouts: tuple[Layout, ...] = (Layout.ROW, Layout.COLUMN),
        page_size: int = 4096,
    ):
        if not layouts:
            raise StorageError("a database needs at least one layout")
        self.layouts = tuple(layouts)
        self.page_size = page_size
        self._tables: dict[str, TableEntry] = {}
        #: Remembers repeatedly-failing partitions across this
        #: instance's parallel queries and routes them straight to
        #: salvage-mode serial scans (see :mod:`repro.engine.governance`).
        self.breaker = CircuitBreaker()
        #: Lazily-created persistent scheduler behind :meth:`submit`.
        self._scheduler: Scheduler | None = None

    # --- DDL -------------------------------------------------------------

    def create_table(
        self,
        data: GeneratedTable,
        compress: bool = False,
        sort_key: str | None = None,
        write_budget: int | None = None,
    ) -> None:
        """Register one generated table, materialized in every layout.

        ``sort_key`` declares the clustering attribute: merges re-sort
        the combined data on it (stable, so duplicate-key rows keep
        insertion order).  ``write_budget`` caps the bytes the table's
        write store may stage before an insert raises
        :class:`~repro.errors.MemoryBudgetExceeded` (merge to drain).
        """
        name = data.schema.name
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        self._tables[name] = TableEntry(
            data, self.layouts, self.page_size, compress, sort_key, write_budget
        )

    def create_view(
        self,
        table: str,
        attributes: tuple[str, ...],
        name: str | None = None,
        sort_key: str | None = None,
        compress: bool = True,
        use_rle: bool = False,
    ) -> MaterializedView:
        """Materialize a vertical partition and register it for routing.

        The view remembers how it was made and is re-materialized over
        the new base by every merge.
        """
        return self._entry(table).create_view(
            tuple(attributes),
            name=name,
            sort_key=sort_key,
            compress=compress,
            use_rle=use_rle,
        )

    # --- catalog -----------------------------------------------------------

    def table(self, name: str, layout: Layout | None = None) -> Table:
        """One materialized table (default: the first configured layout)."""
        entry = self._entry(name)
        layout = layout or self.layouts[0]
        if layout not in entry.tables:
            raise StorageError(f"table {name!r} not loaded as {layout}")
        return entry.tables[layout]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def _entry(self, name: str) -> TableEntry:
        if name not in self._tables:
            raise StorageError(f"no table {name!r}; have {self.tables()}")
        return self._tables[name]

    # --- writes (the Figure 1 write-optimized store) -------------------------

    def write_store(self, table: str) -> WriteOptimizedStore:
        """The staging store behind one table's hybrid read path."""
        return self._entry(table).store

    def insert(self, table: str, row: tuple) -> None:
        """Stage one tuple; visible to queries immediately (hybrid scan)."""
        self.insert_many(table, [row])

    def insert_many(self, table: str, rows: list[tuple]) -> None:
        """Stage a batch of tuples, all or none.

        Arity and the write budget are checked for the whole batch
        before any row is staged: a refused batch stages nothing.
        """
        self._entry(table).insert_many(rows)

    def delete(
        self,
        table: str,
        predicates: tuple[Predicate, ...] = (),
        positions=None,
    ) -> int:
        """Mark rows deleted in the table's delete vector.

        Either by explicit global ``positions`` or by ``predicates``
        (both base rows and staged rows are matched; no predicates
        means *all* rows).  Deletes are logical until the next merge;
        queries stop seeing the rows immediately.  Returns how many
        rows were newly deleted (re-deleting is idempotent).
        """
        entry = self._entry(table)
        if positions is not None:
            if predicates:
                raise PlanError("pass predicates or positions, not both")
            return entry.delete(positions)
        # The probe scan runs the *base* table directly: delete
        # positions are global (un-remapped), so the hybrid path
        # (which renumbers around prior deletes) must not be used.
        probe_attr = predicates[0].attr if predicates else (
            entry.data.schema.attribute_names[0]
        )
        scan = ScanQuery(table, select=(probe_attr,), predicates=tuple(predicates))
        matched = run_scan(entry.tables[self.layouts[0]], scan).positions
        return entry.delete(matched, predicates)

    def merge(self, table: str, verify: bool = False) -> None:
        """Drain the write store into freshly rebuilt read-store tables.

        Rebuild every materialized layout with deletes reclaimed and
        staged rows appended (re-clustered on the declared
        ``sort_key``, stable), swap them in, re-materialize views, and
        clear the staging area.  ``verify=True`` sweeps the rebuilt
        pages before the swap, so a merge can never install corrupt
        pages.  A failure re-raises with one black box dumped.  For the
        same work on the scheduler, between timeslices, see
        :meth:`start_merge`.
        """
        steps = self._entry(table).merge_steps(f"merge {table}", verify, blackbox=True)
        for _ in steps:
            pass

    def start_merge(self, table: str, verify: bool = False) -> JobHandle:
        """Kick off an incremental merge on the database's scheduler.

        The merge advances one step per scheduler round (rebuild, then
        one layout load per step, then an atomic in-memory swap), so
        queries submitted before the swap finish on the old snapshot
        and queries submitted after it see the merged table.  The write
        store is frozen from the first round until the merge commits;
        a failure lands on the handle, black-boxed by the scheduler.
        """
        label = f"background merge {table}"
        return self.scheduler.submit_job(
            self._entry(table).merge_steps(label, verify, blackbox=False),
            label=label,
        )

    def write_board(self) -> dict:
        """Per-table write-store state for the dashboard panel."""
        return {name: entry.board() for name, entry in sorted(self._tables.items())}

    # --- queries ------------------------------------------------------------

    def _resolve_target(
        self,
        table: str,
        scan: ScanQuery,
        layout: Layout | None,
        use_views: bool,
    ):
        """Resolve step of every entry point: where a scan runs, and its overlay.

        Returns ``(target, post)``.  ``target`` is the explicit
        ``layout``, else a covering view, else the first layout; a
        dirty write store bypasses views, which materialize the last
        merged snapshot.  ``post`` is ``None`` for a clean table and
        otherwise applies the write-store overlay (delete filtering,
        position remapping, staged-row append) to the finished
        :class:`QueryResult` of whichever executor ran the scan.  The
        overlay snapshots the write store *now* — at submit time — so
        a scheduled or fanned-out query sees a consistent image even
        if writes or a merge land while it is in flight.
        """
        entry = self._entry(table)
        hybrid = entry.store.has_changes
        if layout is not None:
            target = self.table(table, layout)
        elif use_views and not hybrid:
            target, _source = entry.router.route(scan)
        else:
            target = entry.tables[self.layouts[0]]
        if not hybrid:
            return target, None
        flight.record("write.hybrid", table=table)
        return target, build_overlay(entry.store, scan).apply

    def query(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout | None = None,
        use_views: bool = True,
        context: ExecutionContext | None = None,
        salvage: bool = False,
        workers: int = 1,
        partitions: int | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        policy: SupervisionPolicy | None = None,
        column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    ) -> QueryResult:
        """Execute a scan, optionally routed to a covering view.

        When the table has staged writes or logical deletes, the scan
        runs the *hybrid* path (base minus delete vector, plus staged
        rows) and its result is byte-identical to re-running the query
        against a freshly merged table.  Views are bypassed while the
        write store is dirty — they reflect the last merge.

        Strict by default: a corrupt page aborts the query with
        :class:`~repro.errors.ChecksumError`.  With ``salvage=True`` the
        scan skips corrupt pages and reports them through
        ``QueryResult.corruption`` instead.

        ``workers > 1`` fans the scan out over row-range partitions
        (``partitions``, default one per worker) on the partition
        thread pool — see :func:`repro.engine.parallel.parallel_query`.
        The worker count is clamped to ``os.cpu_count()``: more threads
        than cores only add scheduling latency.

        ``timeout`` (seconds), ``memory_budget`` (bytes), and
        ``cancellation`` opt the query into lifecycle governance (see
        :mod:`repro.engine.governance`): it then either completes,
        degrades gracefully, or raises a typed
        :class:`~repro.errors.GovernanceError` subclass — it never
        hangs and never returns a partial result.  They require a
        ``context`` without a governance of its own (or none); the
        caller's context keeps accumulating events and is otherwise
        left as it was (see :func:`_governed`).
        """
        scan = ScanQuery(table, select=select, predicates=predicates)
        context = _governed(
            context, f"query on {table}", timeout, memory_budget, cancellation
        )
        target, post = self._resolve_target(table, scan, layout, use_views)
        workers = min(workers, os.cpu_count() or 1)
        if workers > 1:
            from repro.engine.parallel import parallel_query

            result = parallel_query(
                target,
                scan,
                workers=workers,
                partitions=partitions,
                context=context,
                column_scanner=column_scanner,
                salvage=salvage,
                policy=policy,
                breaker=self.breaker,
            )
        else:
            result = run_scan(
                target, scan, context, column_scanner=column_scanner, salvage=salvage
            )
        return post(result) if post is not None else result

    # --- concurrent workloads ------------------------------------------------

    def submit(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout | None = None,
        use_views: bool = True,
        salvage: bool = False,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        label: str = "",
    ) -> QueryHandle:
        """Enqueue a scan on the database's concurrent scheduler.

        Returns a :class:`~repro.engine.scheduler.QueryHandle`
        immediately; call ``handle.value()`` for the result (driving
        the scheduler cooperatively) or submit more queries first so
        co-running scans of the same table share one stream.  The
        governance deadline starts now — queue time counts against
        ``timeout``.
        """
        return self._submit(
            self.scheduler,
            table,
            select,
            predicates,
            layout,
            use_views,
            timeout=timeout,
            memory_budget=memory_budget,
            cancellation=cancellation,
            salvage=salvage,
            # Empty label falls through to the scheduler's unique
            # per-submission default (black-box slices key on it).
            label=label,
        )

    def _submit(
        self, scheduler, table, select, predicates, layout, use_views, **options
    ) -> QueryHandle:
        """Resolve one scan now and enqueue it on ``scheduler``: the one
        submission routine under :meth:`submit` and :meth:`run_workload`
        (``options`` are :meth:`Scheduler.submit`'s)."""
        scan = ScanQuery(table, select=tuple(select), predicates=tuple(predicates))
        target, post = self._resolve_target(table, scan, layout, use_views)
        return scheduler.submit(target, scan, post=post, **options)

    @property
    def scheduler(self) -> Scheduler:
        """The persistent scheduler behind :meth:`submit` (lazy)."""
        if self._scheduler is None:
            self._scheduler = Scheduler()
        return self._scheduler

    def run_workload(
        self,
        requests: list[WorkloadQuery],
        max_inflight: int = 8,
        share_scans: bool = True,
        layout: Layout | None = None,
        use_views: bool = True,
        trace: bool = False,
        info: dict | None = None,
        slowlog: SlowQueryLog | None = None,
    ) -> list[QueryHandle]:
        """Run a batch of scans concurrently and return their handles.

        Each element of ``requests`` is a
        :class:`~repro.engine.scheduler.WorkloadQuery`.  A fresh
        scheduler executes the batch with admission control
        (``max_inflight``), cooperative
        time-slicing, and circular scan streams — with ``share_scans``
        shared by co-running queries, one per row or PAX table whatever
        they project (a query needing an attribute no live stream
        decodes opens another) and one per column table and column set;
        without, one per query.  Handles come back in submission
        order; failed queries carry their typed error on
        ``handle.error`` instead of raising.  ``info``, when given,
        receives the scheduler's
        workload stats (queue depth, share hit-rate, modeled I/O) plus
        the batch's :class:`~repro.obs.slowlog.SlowQueryLog` under
        ``"slowlog"`` (pass your own via ``slowlog=`` to set the
        threshold/top-K).
        """
        scheduler = Scheduler(
            max_inflight=max_inflight,
            share_scans=share_scans,
            trace=trace,
            slowlog=slowlog,
        )
        for index, request in enumerate(requests):
            self._submit(
                scheduler,
                request.table,
                request.select,
                request.predicates,
                layout,
                use_views,
                timeout=request.timeout,
                memory_budget=request.memory_budget,
                salvage=request.salvage,
                # Unique per submission: the flight recorder slices
                # black-box events by label.
                label=request.label
                or f"workload query #{index} on {request.table}",
            )
        scheduler.run()
        if info is not None:
            info.update(scheduler.stats())
            info["slowlog"] = scheduler.slowlog
            if trace and scheduler.tracer is not None:
                info["tracer"] = scheduler.tracer
        return scheduler.handles()

    # --- observability -------------------------------------------------------

    def flight_recorder(self) -> flight.FlightRecorder:
        """The process-wide flight recorder (lifecycle event ring).

        One recorder serves the whole process — every Database, every
        scheduler batch — so post-mortems see cross-workload context.
        """
        return flight.RECORDER

    def dump_blackbox(self, directory=None):
        """The black boxes captured so far (each one failed query).

        With ``directory`` they are written as one JSON file apiece
        (``blackbox-<seq>.json``) and the paths returned; without it
        the raw dicts are returned newest-last.
        """
        if directory is None:
            return list(flight.RECORDER.blackboxes)
        return flight.RECORDER.write_blackboxes(directory)

    def profile(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        *,
        context: ExecutionContext | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        **options,
    ) -> QueryProfile:
        """:meth:`query` under span tracing; takes exactly its options.

        Returns a :class:`~repro.obs.export.QueryProfile`: the
        materialized result plus the per-operator span tree, from which
        the EXPLAIN ANALYZE text (``.explain_text()``), a Chrome/
        Perfetto trace (``.chrome_trace()``/``.save_chrome_trace()``),
        and a provenance-stamped flat profile (``.to_dict()``) derive.

        With ``workers > 1`` partition span trees are stitched into
        the caller's trace (one Perfetto track per partition).  With a
        ``timeout``/``memory_budget``/``cancellation`` the profile
        carries a governance snapshot and ``explain_text()`` appends
        the governance outcomes (why the query degraded); that
        snapshot is why governance is wired here, not in :meth:`query`.
        """
        context = _governed(
            context or ExecutionContext(),
            f"query on {table}",
            timeout,
            memory_budget,
            cancellation,
        )
        if context.tracer is None:
            context = replace(context, tracer=SpanTracer())
        result = self.query(table, select, predicates, context=context, **options)
        return QueryProfile(
            result=result,
            tracer=context.tracer,
            provenance=provenance(context.calibration),
            governance=(
                context.governance.snapshot() if context.governance else None
            ),
        )

    def explain(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        **options,
    ) -> str:
        """EXPLAIN ANALYZE: execute the scan traced, render the plan.

        Every plan node is annotated with its wall time, ``next()``
        call/block/row counts, and its exclusive share of the query's
        :class:`~repro.cpusim.events.CostEvents`.  Governed queries get
        a trailing governance section.  Takes :meth:`query`'s options
        (see :meth:`profile`).
        """
        return self.profile(table, select, predicates, **options).explain_text()

    def predicate(self, table: str, attr: str, selectivity: float) -> Predicate:
        """A selectivity-calibrated predicate over registered data."""
        entry = self._entry(table)
        return predicate_for_selectivity(
            attr, entry.data.column(attr), selectivity
        )

    # --- integrity -----------------------------------------------------------

    def scrub(self, table: str | None = None) -> dict[str, CorruptionReport]:
        """Sweep every page of every stored table (and view).

        Decodes each page of each materialized layout and of every
        registered materialized view, returning one
        :class:`~repro.storage.scrub.CorruptionReport` per swept
        relation, keyed ``TABLE:layout`` / ``VIEW:view``.
        """
        names = [table] if table is not None else self.tables()
        reports: dict[str, CorruptionReport] = {}
        for name in names:
            reports.update(self._entry(name).scrub())
        return reports

    def verify(self, table: str | None = None) -> int:
        """Strict sweep: raises ChecksumError if any page is corrupt.

        Returns the total number of pages verified when clean.
        """
        reports = self.scrub(table)
        dirty = {key: report for key, report in reports.items() if not report.is_clean}
        if dirty:
            details = "; ".join(
                f"{key}: {report.summary()}" for key, report in dirty.items()
            )
            raise ChecksumError(f"database verification failed: {details}")
        return sum(report.pages_scanned for report in reports.values())

    # --- what-if -------------------------------------------------------------

    def estimate(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout = Layout.COLUMN,
        config: ExperimentConfig | None = None,
    ) -> ScanMeasurement:
        """Paper-scale performance estimate for one scan."""
        if layout not in self.layouts:
            raise PlanError(f"layout {layout} not materialized")
        scan = ScanQuery(table, select=select, predicates=predicates)
        return measure_scan(self.table(table, layout), scan, config)
