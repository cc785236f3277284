"""Differential harness: every layout x codec configuration vs the oracle.

For each generated case the harness bulk-loads the same logical data
under all four scanner configurations (row, PAX, column pipelined,
column fused), executes the case's query through the real engine, and
diffs the answer against the pure-Python oracle.  On top of the oracle
diff it layers four *metamorphic* checks that need no oracle at all:

* **selectivity monotonicity** — dropping a conjunct can only grow the
  qualifying set;
* **predicate-complement partition** — ``P`` and ``not P`` split the
  unfiltered result into two disjoint halves;
* **aggregate-of-parts** — aggregating the two halves and merging them
  reproduces the whole-table aggregate;
* **compression invariance** — re-loading the table with identity
  codecs must not change any answer.

A failing case is greedily minimized (drop predicates, strip codecs,
shrink the select list, halve the data) and reported with a one-line
``python -m repro.testing --seed N`` repro command.

Column-only codecs (RLE has variable page capacity) are transparently
downgraded to identity for the fixed-stride row and PAX layouts; the
coverage report tracks which (layout, codec) cells each run exercised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from repro.compression.base import CodecKind, CodecSpec
from repro.data.generator import GeneratedTable
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan, run_scan
from repro.engine.governance import QueryContext
from repro.engine.parallel import parallel_query
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import ComparisonOp, Predicate
from repro.engine.query import AggregateFunction, Query, ScanQuery
from repro.engine.scheduler import WorkloadQuery
from repro.engine.sharing import ScanShareManager, SharedScanConsumer
from repro.errors import GovernanceError
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.table import Table
from repro.testing.genquery import FEATURED_KINDS, GeneratedCase, generate_case
from repro.testing.oracle import (
    OracleResult,
    complement_predicate,
    oracle_aggregate,
    oracle_limit,
    oracle_merge_join,
    oracle_scan,
    oracle_topn,
    pyvalue,
)
from repro.testing.writes import WriteModel, WriteOp


@dataclass(frozen=True)
class ScanConfig:
    """One of the four scanner architectures under test."""

    name: str
    layout: Layout
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED


#: The full configuration matrix every case runs through.
CONFIGS = (
    ScanConfig("row", Layout.ROW),
    ScanConfig("pax", Layout.PAX),
    ScanConfig("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ScanConfig("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)

#: Codec kinds whose page codecs have data-dependent (variable) page
#: capacity; only the column layout supports those, so they downgrade to
#: identity under fixed-stride row/PAX pages.
COLUMN_ONLY_KINDS = frozenset({CodecKind.RLE})


@dataclass
class CaseOutcome:
    """What happened when one case ran through the whole matrix."""

    seed: int
    failures: list[str] = field(default_factory=list)
    #: (config name, codec kind value) cells this case exercised.
    coverage: set[tuple[str, str]] = field(default_factory=set)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    """Aggregate result of a fuzzing run."""

    start_seed: int
    num_cases: int
    checks: int = 0
    coverage: set[tuple[str, str]] = field(default_factory=set)
    #: (seed, first failure message, minimized description) triples.
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    #: Whether the suite forced write-op interleavings onto every case
    #: (replay with ``--writes``).
    writes: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def coverage_table(self) -> str:
        kinds = [kind.value for kind in FEATURED_KINDS]
        lines = ["layout   " + " ".join(f"{k:>9s}" for k in kinds)]
        for config in CONFIGS:
            cells = []
            for kind in FEATURED_KINDS:
                impossible = (
                    kind in COLUMN_ONLY_KINDS and config.layout is not Layout.COLUMN
                )
                if impossible:
                    cells.append(f"{'-':>9s}")
                else:
                    hit = (config.name, kind.value) in self.coverage
                    cells.append(f"{'ok' if hit else 'MISS':>9s}")
            lines.append(f"{config.name:<8s} " + " ".join(cells))
        return "\n".join(lines)

    def format(self) -> str:
        lines = [
            f"fuzz: {self.num_cases} cases (seeds {self.start_seed}.."
            f"{self.start_seed + self.num_cases - 1}), "
            f"{self.checks} differential checks, "
            f"{len(self.failures)} failure(s)",
            self.coverage_table(),
        ]
        flag = " --writes" if self.writes else ""
        for seed, message, minimized in self.failures:
            lines.append(f"FAIL seed {seed}: {message}")
            lines.append(f"  repro: python -m repro.testing --seed {seed}{flag}")
            if minimized:
                lines.append("  minimized:\n    " + minimized.replace("\n", "\n    "))
        return "\n".join(lines)


# --- loading ------------------------------------------------------------------


def _effective_specs(
    specs: dict[str, CodecSpec], layout: Layout
) -> dict[str, CodecSpec]:
    """The codec assignment actually loadable under ``layout``."""
    if layout is Layout.COLUMN:
        return dict(specs)
    return {
        name: spec
        for name, spec in specs.items()
        if spec.kind not in COLUMN_ONLY_KINDS
    }


def _load(
    case: GeneratedCase, table_name: str, layout: Layout, page_size: int | None = None
) -> Table:
    data = case.tables[table_name]
    specs = _effective_specs(case.codec_specs.get(table_name, {}), layout)
    bound = data.with_schema(data.schema.with_codecs(specs))
    return load_table(bound, layout, page_size=page_size or case.page_size)


def _case_coverage(case: GeneratedCase, config: ScanConfig) -> set[tuple[str, str]]:
    cells = set()
    for specs in case.codec_specs.values():
        effective = _effective_specs(specs, config.layout)
        for spec in effective.values():
            cells.add((config.name, spec.kind.value))
        if len(effective) < len(specs) or len(specs) < max(
            len(case.tables[name].schema) for name in case.tables
        ):
            cells.add((config.name, CodecKind.NONE.value))
    return cells


# --- engine execution ---------------------------------------------------------


def _case_context(case: GeneratedCase) -> ExecutionContext:
    """An execution context honouring the case's governance knobs."""
    context = ExecutionContext()
    if case.deadline is not None or case.memory_budget is not None:
        context.governance = QueryContext.start(
            timeout=case.deadline,
            memory_budget=case.memory_budget,
            label=f"fuzz seed {case.seed}",
        )
    return context


def run_generated(
    case: GeneratedCase,
    config: ScanConfig,
    table: Table,
    context: ExecutionContext,
    workers: int = 1,
    **supervision,
) -> QueryResult:
    """The case's query over ``table``, its primary table loaded for ``config``.

    ``workers > 1`` takes the partitioned executor (``supervision``:
    its policy and fault hooks), anything else the serial one.  The
    differential fuzzer and the chaos harness both run cases here.
    """
    left = None
    if case.join_left_query is not None:
        left = _load(case, case.join_left_query.table, config.layout)
    query = case.request(left)
    if workers > 1:
        return parallel_query(
            table,
            query,
            workers=workers,
            partitions=case.num_partitions,
            context=context,
            column_scanner=config.column_scanner,
            **supervision,
        )
    return run_scan(table, query, context, config.column_scanner)


def _ride(manager: ScanShareManager, rider: SharedScanConsumer) -> QueryResult:
    """Drain a rider; one that fails leaves its peers the stream."""
    try:
        return execute_plan(rider)
    except Exception:
        manager.discard(rider)
        raise


#: The mid-flight leg loads the case's table in pages this small and
#: reads it in units of this many pages, so that a table of a few
#: hundred rows has segments to attach between and more than one window.
_RIDER_PAGE_SIZE = 128
_RIDER_UNIT_PAGES = 4


def _check_mid_flight_riders(check, case: GeneratedCase, config: ScanConfig) -> None:
    """Two riders of the case's scan on one shared stream, the second
    attached after ``seed % (segments + 1)`` pumps of the first: it
    joins at a cursor other than 0 and wraps around for the rest."""
    manager = ScanShareManager()
    table = _load(case, case.query.table, config.layout, _RIDER_PAGE_SIZE)
    late: list[SharedScanConsumer] = []

    def context() -> ExecutionContext:
        context = _case_context(case)
        context.calibration = context.calibration.with_overrides(
            io_unit_bytes=_RIDER_UNIT_PAGES * _RIDER_PAGE_SIZE
        )
        return context

    def first_rider() -> QueryResult:
        rider = manager.acquire(table, case.query, context())
        try:
            for _pump in range(case.seed % (rider.share.num_segments + 1)):
                rider.advance()
        except Exception:
            manager.discard(rider)
            raise
        late.append(manager.acquire(table, case.query, context()))
        return _ride(manager, rider)

    check(f"{config.name} shared rider", first_rider, tolerate=GovernanceError)
    if late:
        check(
            f"{config.name} shared rider, attached mid-flight",
            lambda: _ride(manager, late[0]),
            tolerate=GovernanceError,
        )


def _oracle_expected(case: GeneratedCase) -> OracleResult:
    data = case.tables[case.query.table]
    if case.kind == "aggregate":
        return oracle_aggregate(data, case.query, case.aggregate)
    if case.kind == "join":
        return oracle_merge_join(
            case.tables[case.join_left_query.table],
            case.join_left_query,
            data,
            case.query,
            case.join_left_key,
            case.join_right_key,
        )
    scanned = oracle_scan(data, case.query)
    if case.kind == "limit":
        return oracle_limit(scanned, case.limit_count)
    if case.kind == "topn":
        return oracle_topn(
            scanned, case.topn_key, case.topn_count, case.topn_descending
        )
    return scanned


# --- comparison ---------------------------------------------------------------


def _engine_rows(result: QueryResult, names: list[str]) -> list[tuple]:
    columns = [
        [pyvalue(v) for v in result.columns[name].tolist()] for name in names
    ]
    return [tuple(col[i] for col in columns) for i in range(result.num_tuples)]


def _values_equal(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def _rows_equal(got: list[tuple], want: list[tuple]) -> bool:
    if len(got) != len(want):
        return False
    return all(
        len(g) == len(w) and all(_values_equal(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want)
    )


def _diff_message(what: str, got, want) -> str:
    return f"{what}: engine={_truncate(got)} oracle={_truncate(want)}"


def _truncate(value, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def compare_result(
    case: GeneratedCase, result: QueryResult, expected: OracleResult
) -> str | None:
    """One-line diff between an engine result and the oracle, or None."""
    if result.num_tuples == 0 and expected.num_tuples == 0:
        return None
    missing = [n for n in expected.names if n not in result.columns]
    if missing:
        return f"missing output columns {missing} (have {list(result.columns)})"
    got = _engine_rows(result, expected.names)
    if case.kind == "aggregate":
        # Group ordering differs between hash (np.unique) and sort
        # aggregation; compare as sorted multisets.
        got_sorted = sorted(got)
        want_sorted = sorted(expected.rows)
        if not _rows_equal(got_sorted, want_sorted):
            return _diff_message("aggregate rows differ", got_sorted, want_sorted)
        return None
    if not _rows_equal(got, expected.rows):
        return _diff_message("rows differ", got, expected.rows)
    got_positions = result.positions.tolist()
    if got_positions != expected.positions:
        return _diff_message("positions differ", got_positions, expected.positions)
    return None


# --- metamorphic checks -------------------------------------------------------


def _scan_positions(
    table: Table, query: ScanQuery, config: ScanConfig
) -> list[int]:
    result = run_scan(table, query, column_scanner=config.column_scanner)
    return result.positions.tolist()


def _split_predicate(case: GeneratedCase) -> Predicate | None:
    """A predicate partitioning the primary table (for parts checks)."""
    query = case.query
    if query.predicates:
        return query.predicates[0]
    data = case.tables[query.table]
    if data.num_rows == 0:
        return None
    attr = query.select[0]
    values = data.column(attr)
    pivot = pyvalue(np.sort(values)[len(values) // 2])
    return Predicate(attr, ComparisonOp.LE, pivot)


def _merge_parts(function: AggregateFunction, parts: list[list[tuple]]):
    merged: dict[tuple, object] = {}
    for rows in parts:
        for row in rows:
            key, value = row[:-1], row[-1]
            if key not in merged:
                merged[key] = value
            elif function in (AggregateFunction.COUNT, AggregateFunction.SUM):
                merged[key] = merged[key] + value
            elif function is AggregateFunction.MIN:
                merged[key] = min(merged[key], value)
            else:
                merged[key] = max(merged[key], value)
    return sorted(key + (value,) for key, value in merged.items())


def metamorphic_failures(case: GeneratedCase) -> list[str]:
    """Engine-only invariant checks (no oracle involved).

    Runs on the column/pipelined configuration: the invariants hold per
    configuration, and the oracle diff already pins all four
    configurations to the same answer.
    """
    failures: list[str] = []
    config = CONFIGS[2]
    query = case.query
    table = _load(case, query.table, config.layout)

    # 1. Selectivity monotonicity: each dropped conjunct grows the set.
    if query.predicates:
        full = set(_scan_positions(table, query, config))
        weaker = set(
            _scan_positions(
                table, replace(query, predicates=query.predicates[:-1]), config
            )
        )
        if not full <= weaker:
            failures.append(
                "metamorphic: dropping a conjunct lost rows "
                f"{sorted(full - weaker)[:10]}"
            )

    # 2. Predicate-complement partition.
    split = _split_predicate(case)
    if split is not None:
        base = replace(query, predicates=())
        everything = _scan_positions(table, base, config)
        part = _scan_positions(table, replace(base, predicates=(split,)), config)
        rest = _scan_positions(
            table, replace(base, predicates=(complement_predicate(split),)), config
        )
        if set(part) & set(rest):
            failures.append(
                f"metamorphic: P and not-P overlap on {sorted(set(part) & set(rest))[:10]}"
            )
        if sorted(part + rest) != everything:
            failures.append(
                "metamorphic: P + not-P does not partition the table "
                f"({len(part)}+{len(rest)} vs {len(everything)})"
            )

        # 3. Aggregate-of-parts = whole (exact for non-AVG functions).
        if (
            case.kind == "aggregate"
            and case.aggregate.function is not AggregateFunction.AVG
        ):
            spec = case.aggregate
            names = [*spec.group_by, spec.output_name()]

            def _agg_rows(predicates: tuple[Predicate, ...]) -> list[tuple]:
                part = Query(
                    replace(query, predicates=predicates),
                    aggregate=spec,
                    sort_based=case.sort_based,
                )
                result = run_scan(table, part, column_scanner=config.column_scanner)
                if result.num_tuples == 0:
                    return []
                return _engine_rows(result, names)

            whole = sorted(_agg_rows(query.predicates))
            merged = _merge_parts(
                spec.function,
                [
                    _agg_rows(query.predicates + (split,)),
                    _agg_rows(query.predicates + (complement_predicate(split),)),
                ],
            )
            if not _rows_equal(merged, whole):
                failures.append(
                    _diff_message(
                        "metamorphic: aggregate-of-parts != whole", merged, whole
                    )
                )

    # 4. Compression invariance: identity codecs give identical answers.
    if case.codec_specs.get(query.table):
        plain = case.tables[query.table]
        identity = load_table(plain, config.layout, page_size=case.page_size)
        with_codecs = _scan_positions(table, query, config)
        without = _scan_positions(identity, query, config)
        if with_codecs != without:
            failures.append(
                "metamorphic: compression changed the answer "
                f"({len(with_codecs)} vs {len(without)} rows)"
            )
    return failures


# --- one differential leg ------------------------------------------------------


def _check(
    outcome: CaseOutcome,
    case: GeneratedCase,
    expected: OracleResult,
    label: str,
    run: Callable[[], QueryResult],
    tolerate: type[Exception] | tuple = (),
) -> bool:
    """Count one check: ``run()`` must return the oracle's answer.

    A crash is a finding like a wrong answer is; an exception in
    ``tolerate`` passes.  Returns whether the leg held.
    """
    try:
        error = compare_result(case, run(), expected)
    except tolerate:
        error = None
    except Exception as exc:  # noqa: BLE001 - a crash is a finding
        error = f"{type(exc).__name__}: {exc}"
    outcome.checks += 1
    if error:
        outcome.failures.append(f"[{label}] {error}")
    return not error


# --- write cases ---------------------------------------------------------------


def _write_expected(case: GeneratedCase) -> OracleResult:
    """The WriteModel oracle's answer after the whole op sequence."""
    model = WriteModel(case.tables[case.query.table])
    for op in case.write_ops:
        model.apply(op)
    return oracle_scan(model.snapshot(), case.query)


def _write_database(case: GeneratedCase, config: ScanConfig):
    """A single-layout Database with the case's ops applied in order."""
    from repro.database import Database

    name = case.query.table
    data = case.tables[name]
    specs = _effective_specs(case.codec_specs.get(name, {}), config.layout)
    bound = data.with_schema(data.schema.with_codecs(specs))
    db = Database(layouts=(config.layout,), page_size=case.page_size)
    db.create_table(bound)
    for op in case.write_ops:
        if op.kind == "insert":
            db.insert_many(name, list(op.rows))
        elif op.kind == "delete":
            db.delete(name, positions=list(op.positions))
        elif op.kind == "delete_where":
            db.delete(name, predicates=(op.predicate,))
        else:
            db.merge(name)
    return db


def _run_write_case(case: GeneratedCase) -> CaseOutcome:
    """The hybrid read/write differential battery for one case.

    Every scanner architecture answers the query through the hybrid
    base+delta path after the interleaved op sequence; the column
    config additionally runs the scheduler leg (sharing per the case),
    a rebuilt-table leg (atomic merge product, refreshed codecs), and —
    when the case is parallel — the partitioned executor with the
    overlay applied post-hoc.  All must equal the pure-Python
    :class:`~repro.testing.writes.WriteModel` oracle byte-for-byte.
    """
    outcome = CaseOutcome(seed=case.seed)
    check = partial(_check, outcome, case, _write_expected(case))
    name = case.query.table
    scan = dict(select=case.query.select, predicates=case.query.predicates)
    db = None
    for config in CONFIGS:

        def hybrid():
            nonlocal db  # the scheduler leg reads the same database
            db = _write_database(case, config)
            return db.query(name, column_scanner=config.column_scanner, **scan)

        ok = check(f"{config.name} hybrid", hybrid)
        outcome.coverage |= _case_coverage(case, config)
        # Scheduler leg: same snapshot through the cooperative
        # scheduler, shared circular scans per the case's toggle.
        if not ok or not check(
            f"{config.name} scheduler sharing={case.sharing}",
            lambda: db.run_workload(
                [WorkloadQuery(name, **scan)], share_scans=case.sharing
            )[0].value(),
        ):
            return outcome

    # Rebuilt-table leg: the crash-safe merge product (with refreshed
    # codecs) must answer identically to the still-hybrid store.
    config = CONFIGS[2]

    def rebuilt():
        db = _write_database(case, config)
        return run_scan(db.write_store(name).rebuild(db.table(name)), case.query)

    if not check("column rebuilt", rebuilt):
        return outcome

    # Parallel leg: partitioned scan of the base plus post-hoc overlay.
    if case.workers > 1:
        check(
            f"column workers={case.workers}",
            lambda: _write_database(case, config).query(
                name, workers=case.workers, partitions=case.num_partitions, **scan
            ),
        )
    return outcome


# --- case driver --------------------------------------------------------------


def run_case(case: GeneratedCase, metamorphic: bool = True) -> CaseOutcome:
    """Run one case through the full matrix plus the invariant checks."""
    if case.write_ops:
        return _run_write_case(case)
    outcome = CaseOutcome(seed=case.seed)
    check = partial(_check, outcome, case, _oracle_expected(case))
    # Serial leg, then — the same case through the partitioned executor
    # must match the same oracle answer — the parallel-equivalence leg
    # (joins are not decomposable and stay serial-only).
    legs = [1]
    if case.workers > 1 and case.kind != "join":
        legs.append(case.workers)
    for workers in legs:
        for config in CONFIGS:
            check(
                config.name if workers == 1 else f"{config.name} workers={workers}",
                lambda: run_generated(
                    case,
                    config,
                    _load(case, case.query.table, config.layout),
                    _case_context(case),
                    workers,
                ),
                # A typed abort under the case's governance knobs is an
                # acceptable outcome of the lifecycle contract, not a bug.
                tolerate=GovernanceError,
            )
            outcome.coverage |= _case_coverage(case, config)
    if case.kind == "scan":
        # One stream per layout, whatever the column scanner.
        for config in CONFIGS[:3]:
            _check_mid_flight_riders(check, case, config)
    if metamorphic and not outcome.failures:
        try:
            meta = metamorphic_failures(case)
        except Exception as exc:  # noqa: BLE001
            meta = [f"metamorphic checks crashed: {type(exc).__name__}: {exc}"]
        outcome.checks += 1
        outcome.failures.extend(f"[column] {m}" for m in meta)
    return outcome


# --- minimization -------------------------------------------------------------


def _with_rows(case: GeneratedCase, count: int) -> GeneratedCase:
    tables = {
        name: GeneratedTable(
            schema=data.schema,
            columns={k: v[:count] for k, v in data.columns.items()},
        )
        for name, data in case.tables.items()
    }
    return replace(case, tables=tables)


def _write_ops_valid(case: GeneratedCase) -> bool:
    """Whether every delete position still addresses an existing row."""
    if not case.write_ops:
        return True
    model = WriteModel(case.tables[case.query.table])
    for op in case.write_ops:
        if op.kind == "delete" and any(
            position >= len(model.rows) for position in op.positions
        ):
            return False
        model.apply(op)
    return True


def _required_attrs(case: GeneratedCase) -> set[str]:
    needed: set[str] = set()
    if case.aggregate is not None:
        needed.update(case.aggregate.group_by)
        if case.aggregate.argument:
            needed.add(case.aggregate.argument)
    if case.join_right_key:
        needed.add(case.join_right_key)
    if case.topn_key:
        needed.add(case.topn_key)
    return needed


def minimize_case(
    case: GeneratedCase,
    still_fails: Callable[[GeneratedCase], bool] | None = None,
    budget: int = 40,
) -> GeneratedCase:
    """Greedy shrink: smallest variant that still fails the harness.

    The original codec specs stay valid on row prefixes (packed widths
    upper-bound the surviving values; dictionaries are supersets), so
    halving the data never invalidates the physical design.
    """
    if still_fails is None:
        still_fails = lambda c: not run_case(c).ok  # noqa: E731
    spent = 0

    def attempt(candidate: GeneratedCase, note: str) -> GeneratedCase | None:
        nonlocal spent
        if spent >= budget:
            return None
        spent += 1
        try:
            if still_fails(candidate):
                return replace(
                    candidate, shrink_steps=case.shrink_steps + [note]
                )
        except Exception:  # noqa: BLE001 - a crash still reproduces
            return replace(candidate, shrink_steps=case.shrink_steps + [note])
        return None

    changed = True
    while changed and spent < budget:
        changed = False
        # Write batches shrink FIRST: most hybrid-path failures need
        # only a fragment of the op interleaving, and a short op list
        # makes every later shrink (rows, predicates, codecs) cheaper
        # to evaluate.  Only structurally valid shortenings are tried —
        # dropping an insert can strand a later delete's positions.
        if case.write_ops:
            for index in range(len(case.write_ops) - 1, -1, -1):
                ops = case.write_ops[:index] + case.write_ops[index + 1 :]
                candidate = replace(case, write_ops=ops)
                if not _write_ops_valid(candidate):
                    continue
                shrunk = attempt(
                    candidate,
                    f"drop write op {case.write_ops[index].describe()}",
                )
                if shrunk is not None:
                    case = shrunk
                    changed = True
                    break
            if changed:
                continue
            for index, op in enumerate(case.write_ops):
                if op.kind != "insert" or len(op.rows) < 2:
                    continue
                ops = list(case.write_ops)
                ops[index] = replace(op, rows=op.rows[: len(op.rows) // 2])
                candidate = replace(case, write_ops=ops)
                if not _write_ops_valid(candidate):
                    continue
                shrunk = attempt(
                    candidate, f"halve insert #{index} to {len(op.rows) // 2}"
                )
                if shrunk is not None:
                    case = shrunk
                    changed = True
                    break
            if changed:
                continue
        # Does the failure need governance at all?  Shrinking toward
        # "no governance" first separates lifecycle bugs from engine
        # bugs that merely surfaced under a governed run.
        if case.deadline is not None or case.memory_budget is not None:
            candidate = attempt(
                replace(case, deadline=None, memory_budget=None), "no governance"
            )
            if candidate is not None:
                case = candidate
                changed = True
                continue
        # Is the failure parallel-specific?  Serial-only repros first.
        if case.workers > 1:
            candidate = attempt(
                replace(case, workers=1, num_partitions=None), "workers->1"
            )
            if candidate is not None:
                case = candidate
                changed = True
                continue
        # Halve the data.
        rows = max(d.num_rows for d in case.tables.values())
        if rows > 1:
            halved = _with_rows(case, rows // 2)
            if _write_ops_valid(halved):
                smaller = attempt(halved, f"rows->{rows // 2}")
                if smaller is not None:
                    case = smaller
                    changed = True
                    continue
        # Drop predicates one at a time.
        for index in range(len(case.query.predicates)):
            predicates = (
                case.query.predicates[:index] + case.query.predicates[index + 1 :]
            )
            candidate = attempt(
                replace(case, query=replace(case.query, predicates=predicates)),
                f"drop predicate {case.query.predicates[index].describe()}",
            )
            if candidate is not None:
                case = candidate
                changed = True
                break
        if changed:
            continue
        # Strip codecs.
        for table_name, specs in case.codec_specs.items():
            for attr in list(specs):
                slimmed = {
                    t: {a: s for a, s in sp.items() if (t, a) != (table_name, attr)}
                    for t, sp in case.codec_specs.items()
                }
                candidate = attempt(
                    replace(case, codec_specs=slimmed),
                    f"identity codec for {table_name}.{attr}",
                )
                if candidate is not None:
                    case = candidate
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # Shrink the select list.
        required = _required_attrs(case)
        for name in case.query.select:
            if name in required or len(case.query.select) == 1:
                continue
            select = tuple(n for n in case.query.select if n != name)
            candidate = attempt(
                replace(case, query=replace(case.query, select=select)),
                f"drop select {name}",
            )
            if candidate is not None:
                case = candidate
                changed = True
                break
    return case


# --- suite driver -------------------------------------------------------------


def run_suite(
    num_cases: int,
    start_seed: int = 0,
    metamorphic: bool = True,
    minimize: bool = True,
    progress: Callable[[int, SuiteReport], None] | None = None,
    force_writes: bool = False,
) -> SuiteReport:
    """Fuzz ``num_cases`` consecutive seeds and aggregate the outcome.

    With ``force_writes`` every case carries an interleaved
    insert/delete/merge op sequence and runs the hybrid read/write
    differential battery instead of the plain matrix.
    """
    report = SuiteReport(
        start_seed=start_seed, num_cases=num_cases, writes=force_writes
    )
    for offset in range(num_cases):
        seed = start_seed + offset
        case = generate_case(seed, force_writes=force_writes)
        outcome = run_case(case, metamorphic=metamorphic)
        report.checks += outcome.checks
        report.coverage |= outcome.coverage
        if not outcome.ok:
            minimized = ""
            if minimize:
                minimized = minimize_case(case).describe()
            report.failures.append((seed, outcome.failures[0], minimized))
        if progress is not None:
            progress(offset + 1, report)
    return report
