"""Engine-level chaos harness: seeded faults vs the governance contract.

Where :mod:`repro.storage.faults` attacks the storage layer (transient
read errors, bit flips), this module attacks the *query lifecycle*: it
replays the differential fuzzer's generated cases while injecting

* **slow decodes** — every page read sleeps (:class:`SlowPagedFile`,
  the :class:`~repro.storage.faults.FaultyPagedFile` idiom);
* **allocation spikes** — a burst reservation charged against the
  query's memory budget mid-plan, through the governance tick hook;
* **tight deadlines and mid-scan cancels** — deadlines short enough to
  expire inside a scan, and cancellation tokens tripped at a seeded
  tick;
* **partition crashes and stalls** — an exception in place of a
  partition's plan, or a long wait mid-scan, exercising the parallel
  supervision ladder (retry, stall detection, degradation, circuit
  breaker).

Every case asserts the governance invariant:

    *correct result XOR typed error, within deadline x slack.*

A chaos query either completes with the oracle's exact answer
(:mod:`repro.testing.oracle`, the same oracle the differential fuzzer
diffs against) or raises a :class:`~repro.errors.GovernanceError`
subclass — never a wrong answer, never an untyped crash, never a hang.
Everything is a pure function of the integer seed, so any violation is
replayable with ``python -m repro.testing.chaos --seed N``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult
from repro.engine.governance import QueryContext, SupervisionPolicy
from repro.errors import GovernanceError, ReproError
from repro.obs import recorder as flight
from repro.storage.pagefile import PagedFile
from repro.storage.table import ColumnTable, Table
from repro.testing.genquery import GeneratedCase, generate_case
from repro.testing.harness import (
    CONFIGS,
    _load,
    _oracle_expected,
    compare_result,
    run_generated,
)

__all__ = [
    "ChaosCase",
    "ChaosKill",
    "ChaosOutcome",
    "ChaosReport",
    "SlowPagedFile",
    "WorkloadChaosCase",
    "WorkloadChaosOutcome",
    "WorkloadChaosQuery",
    "allowed_seconds",
    "generate_chaos_case",
    "generate_workload_chaos_case",
    "run_chaos_case",
    "run_chaos_suite",
    "run_workload_chaos_case",
    "slow_down_table",
]

#: Multiplier on the case deadline when bounding wall time ("slack").
DEADLINE_SLACK = 5.0
#: Fixed grace on top of the slack product: interpreter start-up and
#: a loaded box are real but bounded.
BASE_GRACE_SECONDS = 10.0
#: Wall bound for cases that run without a deadline of their own.
UNGOVERNED_BOUND_SECONDS = 60.0


# --- injectors ------------------------------------------------------------------


class SlowPagedFile(PagedFile):
    """A :class:`PagedFile` whose every page read sleeps first.

    Stands in for a slow decode path (cold cache, heavyweight codec,
    contended disk) without touching the codec layer; shares the
    wrapped file's byte buffer like
    :class:`~repro.storage.faults.FaultyPagedFile` does.
    """

    def __init__(self, inner: PagedFile, delay_s: float):
        super().__init__(inner.name, inner.page_size, retry_policy=inner.retry_policy)
        self._data = inner._data
        self.delay_s = delay_s

    def _read_page_raw(self, index: int) -> bytes:
        time.sleep(self.delay_s)
        return super()._read_page_raw(index)


def slow_down_table(table: Table, delay_s: float) -> None:
    """Route every page read of ``table`` through a sleeping wrapper."""
    if isinstance(table, ColumnTable):
        for column_file in table.column_files.values():
            column_file.file = SlowPagedFile(column_file.file, delay_s)
    else:
        table.file = SlowPagedFile(table.file, delay_s)


# --- cases ----------------------------------------------------------------------


@dataclass
class ChaosCase:
    """One seeded chaos scenario: a generated query plus injections."""

    seed: int
    #: The underlying differential case (workers/partitions set for
    #: parallel mode, forced serial otherwise).
    case: GeneratedCase
    #: Which of the four scanner architectures runs it.
    config_name: str
    #: ``"serial"`` or ``"parallel"``.
    mode: str
    deadline: float | None = None
    memory_budget: int | None = None
    #: Trip the cancellation token once this many governance ticks pass.
    cancel_after_ticks: int | None = None
    #: Per-page-read sleep (serial slow-decode injection).
    slow_decode_s: float = 0.0
    #: One burst reservation charged against the budget mid-plan.
    alloc_spike: int = 0
    alloc_after_ticks: int = 0
    #: Parallel injections (partition index / (index, sleep seconds)).
    inject_crash: int | None = None
    inject_stall: tuple[int, float] | None = None
    stall_timeout: float = 0.25

    def describe(self) -> str:
        parts = [f"chaos seed={self.seed} mode={self.mode} config={self.config_name}"]
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        if self.memory_budget is not None:
            parts.append(f"budget={self.memory_budget}B")
        if self.cancel_after_ticks is not None:
            parts.append(f"cancel@tick{self.cancel_after_ticks}")
        if self.slow_decode_s:
            parts.append(f"slow_decode={self.slow_decode_s * 1000:.0f}ms/page")
        if self.alloc_spike:
            parts.append(f"alloc_spike={self.alloc_spike}B@tick{self.alloc_after_ticks}")
        if self.inject_crash is not None:
            parts.append(f"crash=partition{self.inject_crash}")
        if self.inject_stall is not None:
            parts.append(
                f"stall=partition{self.inject_stall[0]}/{self.inject_stall[1]}s"
                f" (timeout {self.stall_timeout}s)"
            )
        return " ".join(parts) + "\n  " + self.case.describe().replace("\n", "\n  ")


def _base_case(seed: int) -> GeneratedCase:
    """A non-join generated case derived deterministically from ``seed``.

    Joins stay serial-only in the engine and carry no materializing
    stage worth attacking, so chaos skips to the next deterministic
    alternative seed.
    """
    derived = seed
    case = generate_case(derived)
    while case.kind == "join":
        derived += 100_003
        case = generate_case(derived)
    return case


def generate_chaos_case(seed: int) -> ChaosCase:
    """The chaos scenario for one seed (pure function of the seed)."""
    rng = random.Random(f"chaos-{seed}")
    case = _base_case(seed)
    config_name = rng.choice([config.name for config in CONFIGS])

    if rng.random() < 0.30:
        # Parallel: attack the supervision ladder.
        partitions = rng.choice([2, 3])
        chaos = ChaosCase(
            seed=seed,
            case=replace(case, workers=2, num_partitions=partitions),
            config_name=config_name,
            mode="parallel",
            stall_timeout=0.25,
        )
        roll = rng.random()
        if roll < 0.35:
            chaos.inject_crash = rng.randrange(partitions)
        elif roll < 0.70:
            chaos.inject_stall = (rng.randrange(partitions), 0.6)
        chaos.deadline = rng.choice([0.0, 0.02]) if rng.random() < 0.2 else 15.0
        if rng.random() < 0.3:
            chaos.memory_budget = rng.choice([32_000, 256_000])
        if rng.random() < 0.15:
            chaos.cancel_after_ticks = rng.randint(1, 20)
        return chaos

    # Serial: attack the cooperative checkpoints and the budget.
    chaos = ChaosCase(
        seed=seed,
        case=replace(case, workers=1, num_partitions=None),
        config_name=config_name,
        mode="serial",
    )
    injection = rng.choices(
        ["deadline", "cancel", "budget", "slow", "none"],
        weights=[0.25, 0.20, 0.25, 0.15, 0.15],
    )[0]
    if injection == "deadline":
        chaos.deadline = rng.choice([0.0, 0.001, 0.005, 0.05])
        if rng.random() < 0.3:
            chaos.slow_decode_s = 0.002  # guarantee mid-scan expiry
    elif injection == "cancel":
        chaos.deadline = 10.0
        chaos.cancel_after_ticks = rng.randint(1, 10)
    elif injection == "budget":
        chaos.deadline = 10.0
        chaos.memory_budget = rng.choice([512, 2_048, 16_384, 262_144])
        if rng.random() < 0.5:
            chaos.alloc_spike = rng.choice([100_000, 10_000_000])
            chaos.alloc_after_ticks = rng.randint(1, 6)
    elif injection == "slow":
        chaos.slow_decode_s = rng.choice([0.001, 0.005])
        chaos.deadline = rng.choice([0.01, 0.05, 10.0])
    else:  # "none": governance armed but quiet — must match the oracle
        chaos.deadline = 10.0
        if rng.random() < 0.5:
            chaos.memory_budget = 4_000_000
    return chaos


# --- execution ------------------------------------------------------------------


def _chaos_hook(chaos: ChaosCase):
    """The on-tick hook firing cancels and allocation spikes once."""
    fired = {"cancel": False, "alloc": False}

    def hook(governance: QueryContext) -> None:
        if (
            chaos.cancel_after_ticks is not None
            and not fired["cancel"]
            and governance.ticks >= chaos.cancel_after_ticks
        ):
            fired["cancel"] = True
            governance.token.cancel(f"chaos cancel at tick {governance.ticks}")
        if (
            chaos.alloc_spike
            and not fired["alloc"]
            and governance.ticks >= chaos.alloc_after_ticks
        ):
            fired["alloc"] = True
            if not governance.try_reserve(chaos.alloc_spike):
                governance.budget_abort("chaos allocation spike", chaos.alloc_spike)
            governance.note(
                f"chaos allocation spike of {chaos.alloc_spike:,} B fit the budget"
            )

    return hook


def allowed_seconds(chaos: ChaosCase) -> float:
    """The wall bound the invariant holds the case to (deadline x slack).

    A generous fixed grace covers start-up costs that are real
    but bounded; what the bound actually polices is *hangs* — a query
    that ignores its deadline scales past any slack multiple.
    """
    grace = BASE_GRACE_SECONDS
    if chaos.mode == "parallel":
        grace += 2 * chaos.stall_timeout
        if chaos.inject_stall is not None:
            grace += chaos.inject_stall[1]
    if chaos.deadline is None:
        return UNGOVERNED_BOUND_SECONDS + grace
    return chaos.deadline * DEADLINE_SLACK + grace


@dataclass
class ChaosOutcome:
    """What one chaos case did, checked against the invariant."""

    seed: int
    mode: str
    completed: bool = False
    #: Exception class name when the query raised, else ``None``.
    raised: str | None = None
    elapsed: float = 0.0
    #: Governance outcome notes recorded during the run.
    outcomes: list[str] = field(default_factory=list)
    #: Invariant violations (empty means the contract held).
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos_case(chaos: ChaosCase) -> ChaosOutcome:
    """Run one chaos case and check the governance invariant."""
    outcome = ChaosOutcome(seed=chaos.seed, mode=chaos.mode)
    expected = _oracle_expected(chaos.case)
    config = next(c for c in CONFIGS if c.name == chaos.config_name)
    governance = QueryContext.start(
        timeout=chaos.deadline,
        memory_budget=chaos.memory_budget,
        label=f"chaos seed {chaos.seed}",
    )
    governance.on_tick = _chaos_hook(chaos)
    context = ExecutionContext()
    context.governance = governance

    case = chaos.case
    supervision = {}
    if chaos.mode == "parallel":
        supervision = dict(
            policy=SupervisionPolicy(
                stall_timeout=chaos.stall_timeout, poll_interval=0.02
            ),
            inject_crash=chaos.inject_crash,
            inject_stall=chaos.inject_stall,
        )
    result: QueryResult | None = None
    started = time.monotonic()
    try:
        table = _load(case, case.query.table, config.layout)
        if chaos.slow_decode_s:
            slow_down_table(table, chaos.slow_decode_s)
        result = run_generated(
            case, config, table, context, case.workers, **supervision
        )
    except Exception as exc:  # noqa: BLE001 - an untyped escape is a finding
        outcome.raised = type(exc).__name__
        if not isinstance(exc, GovernanceError):
            outcome.violations.append(
                f"untyped failure escaped governance: {type(exc).__name__}: {exc}"
            )
        # One replayable black box per raised engine-level chaos case.
        flight.blackbox(
            governance.label,
            error=exc,
            governance=governance.snapshot(),
            replay=f"python -m repro.testing.chaos --seed {chaos.seed}",
        )
    outcome.elapsed = time.monotonic() - started
    outcome.outcomes = list(governance.outcomes)

    if result is not None:
        outcome.completed = True
        diff = compare_result(chaos.case, result, expected)
        if diff:
            outcome.violations.append(f"wrong answer under chaos: {diff}")
    bound = allowed_seconds(chaos)
    if outcome.elapsed > bound:
        outcome.violations.append(
            f"deadline slack exceeded: ran {outcome.elapsed:.2f}s, "
            f"allowed {bound:.2f}s"
        )
    return outcome


# --- chaos under concurrency ----------------------------------------------------


class ChaosKill(ReproError):
    """Typed injected failure standing in for a killed query.

    Raised out of the victim's governance tick hook, it rides the same
    typed-error path a real mid-query fault would: the scheduler
    records it on the victim's handle and detaches the victim from any
    scan share — peers must be untouched.
    """


@dataclass(frozen=True)
class WorkloadChaosQuery:
    """One query of a concurrent chaos batch, possibly a victim."""

    select: tuple[str, ...]
    #: Predicate selectivity (None: no predicate).
    selectivity: float | None
    timeout: float | None = None
    #: ``None`` (healthy peer) or one of kill/cancel/deadline/stall.
    injection: str | None = None
    inject_after_ticks: int = 0
    stall_s: float = 0.0


@dataclass(frozen=True)
class WorkloadChaosCase:
    """A seeded concurrent batch with per-query fault injections."""

    seed: int
    num_rows: int
    layout_name: str  # a CONFIGS name: one of the four architectures
    share_scans: bool
    max_inflight: int
    queries: tuple[WorkloadChaosQuery, ...]

    def describe(self) -> str:
        lines = [
            f"workload-chaos seed={self.seed} rows={self.num_rows} "
            f"config={self.layout_name} share={self.share_scans} "
            f"inflight={self.max_inflight}"
        ]
        for index, query in enumerate(self.queries):
            what = query.injection or "healthy"
            lines.append(
                f"  q{index}: select={','.join(query.select)} "
                f"sel={query.selectivity} timeout={query.timeout} [{what}]"
            )
        return "\n".join(lines)


_WORKLOAD_ATTRS = (
    "O_ORDERKEY",
    "O_CUSTKEY",
    "O_TOTALPRICE",
    "O_SHIPPRIORITY",
    "O_ORDERDATE",
)


def generate_workload_chaos_case(seed: int) -> WorkloadChaosCase:
    """The concurrent chaos scenario for one seed (pure in the seed)."""
    rng = random.Random(f"workload-chaos-{seed}")
    num_rows = rng.randint(200, 600)
    config_name = rng.choice([config.name for config in CONFIGS])
    num_queries = rng.randint(4, 8)
    # 1-3 victims, always leaving at least one healthy peer to assert
    # share isolation against.
    victims = set(
        rng.sample(range(num_queries), rng.randint(1, min(3, num_queries - 1)))
    )
    queries = []
    for index in range(num_queries):
        num_select = rng.randint(1, 3)
        select = tuple(rng.sample(_WORKLOAD_ATTRS, num_select))
        selectivity = rng.choice([None, 0.1, 0.3, 0.6, 0.9])
        if index not in victims:
            queries.append(
                WorkloadChaosQuery(
                    select=select, selectivity=selectivity, timeout=None
                )
            )
            continue
        injection = rng.choice(["kill", "cancel", "deadline", "stall"])
        queries.append(
            WorkloadChaosQuery(
                select=select,
                selectivity=selectivity,
                # Tight-deadline victims race the clock; others get none
                # so a slow box cannot fail the wrong query.
                timeout=rng.choice([0.0, 0.001]) if injection == "deadline" else None,
                injection=injection,
                inject_after_ticks=rng.randint(1, 12),
                stall_s=0.02 if injection == "stall" else 0.0,
            )
        )
    return WorkloadChaosCase(
        seed=seed,
        num_rows=num_rows,
        layout_name=config_name,
        share_scans=rng.random() < 0.5,
        max_inflight=rng.randint(2, num_queries),
        queries=tuple(queries),
    )


def _workload_hook(query: WorkloadChaosQuery):
    """Per-victim tick hook firing its injection exactly once."""
    if query.injection in (None, "deadline"):
        return None
    fired = [False]

    def hook(governance: QueryContext) -> None:
        if fired[0] or governance.ticks < query.inject_after_ticks:
            return
        fired[0] = True
        if query.injection == "kill":
            raise ChaosKill(
                f"chaos kill at tick {governance.ticks} ({governance.label})"
            )
        if query.injection == "cancel":
            governance.token.cancel(f"chaos cancel at tick {governance.ticks}")
        elif query.injection == "stall":
            time.sleep(query.stall_s)
            governance.note(f"chaos stall of {query.stall_s}s")

    return hook


@dataclass
class WorkloadChaosOutcome:
    """What one concurrent chaos batch did, checked per query."""

    seed: int
    #: Per-query: ``"completed"`` or the raised error's class name.
    states: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_workload_chaos_case(case: WorkloadChaosCase) -> WorkloadChaosOutcome:
    """Run one concurrent batch; check the invariant per query.

    Every query must end in *correct result XOR typed error*; every
    query with no injection of its own must complete byte-identically
    to its serial oracle run — a victim's kill, cancel, or deadline
    may never corrupt or cancel its scan-share peers.
    """
    import numpy as np

    from repro.data.tpch import generate_orders
    from repro.engine.predicate import predicate_for_selectivity
    from repro.engine.query import ScanQuery
    from repro.engine.scheduler import Scheduler
    from repro.engine.executor import run_scan

    outcome = WorkloadChaosOutcome(seed=case.seed)
    config = next(c for c in CONFIGS if c.name == case.layout_name)
    data = generate_orders(case.num_rows, seed=case.seed % 1_000 + 1)
    from repro.storage.loader import load_table

    table = load_table(data, config.layout)
    scans = []
    for query in case.queries:
        predicates = ()
        if query.selectivity is not None:
            attr = query.select[0]
            predicates = (
                predicate_for_selectivity(
                    attr, data.column(attr), query.selectivity
                ),
            )
        scans.append(
            ScanQuery("ORDERS", select=query.select, predicates=predicates)
        )
    expected = [
        run_scan(load_table(data, config.layout), scan, column_scanner=config.column_scanner)
        for scan in scans
    ]

    scheduler = Scheduler(max_inflight=case.max_inflight, share_scans=case.share_scans)
    started = time.monotonic()
    handles = [
        scheduler.submit(
            table,
            scan,
            timeout=query.timeout,
            label=f"workload-chaos seed {case.seed} q{index}",
            on_tick=_workload_hook(query),
            # The scheduler stamps this into the black box it dumps
            # should this query fail — seeded, so the box replays.
            replay=f"python -m repro.testing.chaos --workload-seed {case.seed}",
        )
        for index, (query, scan) in enumerate(zip(case.queries, scans))
    ]
    try:
        scheduler.run()
    except Exception as exc:  # noqa: BLE001 - an escape is a finding
        outcome.violations.append(
            f"untyped failure escaped the scheduler: {type(exc).__name__}: {exc}"
        )
    outcome.elapsed = time.monotonic() - started

    for index, (query, handle, want) in enumerate(
        zip(case.queries, handles, expected)
    ):
        if handle.error is not None:
            outcome.states.append(type(handle.error).__name__)
            if not isinstance(handle.error, (GovernanceError, ChaosKill)):
                outcome.violations.append(
                    f"q{index}: untyped error {type(handle.error).__name__}: "
                    f"{handle.error}"
                )
            if query.injection is None:
                outcome.violations.append(
                    f"q{index}: healthy peer failed with "
                    f"{type(handle.error).__name__} — a victim's fault leaked"
                )
            continue
        outcome.states.append("completed")
        got = handle.result
        if got is None:
            outcome.violations.append(f"q{index}: no result and no error")
            continue
        if not np.array_equal(got.positions, want.positions):
            outcome.violations.append(
                f"q{index}: positions differ from the serial oracle run"
            )
            continue
        for name in want.columns:
            if name not in got.columns or not np.array_equal(
                got.columns[name], want.columns[name]
            ):
                outcome.violations.append(
                    f"q{index}: column {name!r} differs from the serial run"
                )
                break
            if got.columns[name].dtype != want.columns[name].dtype:
                outcome.violations.append(
                    f"q{index}: column {name!r} dtype drifted"
                )
                break

    bound = UNGOVERNED_BOUND_SECONDS + BASE_GRACE_SECONDS
    if outcome.elapsed > bound:
        outcome.violations.append(
            f"workload ran {outcome.elapsed:.2f}s, allowed {bound:.2f}s"
        )
    return outcome


# --- suite ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Aggregate result of one chaos sweep."""

    start_seed: int
    num_cases: int
    completed: int = 0
    #: Typed governance errors by class name.
    typed_errors: dict[str, int] = field(default_factory=dict)
    #: ``(seed, violation message)`` pairs; empty means the sweep held.
    violations: list[tuple[int, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        errors = ", ".join(
            f"{name} x{count}" for name, count in sorted(self.typed_errors.items())
        )
        lines = [
            f"chaos: {self.num_cases} cases (seeds {self.start_seed}.."
            f"{self.start_seed + self.num_cases - 1}) in {self.elapsed:.1f}s: "
            f"{self.completed} completed (oracle-equal), "
            f"{sum(self.typed_errors.values())} typed aborts"
            + (f" ({errors})" if errors else ""),
            f"{len(self.violations)} invariant violation(s)",
        ]
        for seed, message in self.violations:
            lines.append(f"VIOLATION seed {seed}: {message}")
            lines.append(f"  repro: python -m repro.testing.chaos --seed {seed}")
        return "\n".join(lines)


def run_chaos_suite(num_cases: int, start_seed: int = 0, progress=None) -> ChaosReport:
    """Sweep ``num_cases`` consecutive chaos seeds."""
    report = ChaosReport(start_seed=start_seed, num_cases=num_cases)
    started = time.monotonic()
    for offset in range(num_cases):
        seed = start_seed + offset
        outcome = run_chaos_case(generate_chaos_case(seed))
        if outcome.completed:
            report.completed += 1
        elif outcome.raised is not None:
            report.typed_errors[outcome.raised] = (
                report.typed_errors.get(outcome.raised, 0) + 1
            )
        report.violations.extend((seed, message) for message in outcome.violations)
        report.elapsed = time.monotonic() - started
        if progress is not None:
            progress(offset + 1, report)
    return report


# --- CLI ------------------------------------------------------------------------


def dump_blackboxes(directory, file=None) -> None:
    """``--blackbox-dir`` of the fuzz and chaos CLIs: what the run's failures
    left in the flight recorder, one JSON file per black box."""
    if directory is not None:
        paths = flight.RECORDER.write_blackboxes(directory)
        print(f"wrote {len(paths)} black box(es) to {directory}", file=file)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="Chaos harness: injected faults vs the governance contract.",
    )
    parser.add_argument("--cases", type=int, default=200, help="seeds to sweep")
    parser.add_argument("--start-seed", type=int, default=0, help="first seed")
    parser.add_argument("--seed", type=int, default=None, help="replay one seed")
    parser.add_argument(
        "--workload-seed",
        type=int,
        default=None,
        help="replay one concurrent-batch chaos seed",
    )
    parser.add_argument(
        "--show", action="store_true", help="with --seed: print the case and exit"
    )
    parser.add_argument(
        "--blackbox-dir",
        default=None,
        metavar="DIR",
        help="write the flight recorder's black-box dumps (one JSON per "
        "failed query) to DIR before exiting",
    )
    args = parser.parse_args(argv)

    if args.workload_seed is not None:
        case = generate_workload_chaos_case(args.workload_seed)
        print(case.describe())
        if args.show:
            return 0
        outcome = run_workload_chaos_case(case)
        print(
            f"workload seed {args.workload_seed}: "
            f"{outcome.states} in {outcome.elapsed:.3f}s"
        )
        for violation in outcome.violations:
            print(f"  VIOLATION: {violation}")
        dump_blackboxes(args.blackbox_dir)
        return 0 if outcome.ok else 1

    if args.seed is not None:
        chaos = generate_chaos_case(args.seed)
        print(chaos.describe())
        if args.show:
            return 0
        outcome = run_chaos_case(chaos)
        state = "completed" if outcome.completed else f"raised {outcome.raised}"
        print(f"seed {args.seed}: {state} in {outcome.elapsed:.3f}s")
        for note in outcome.outcomes:
            print(f"  note: {note}")
        for violation in outcome.violations:
            print(f"  VIOLATION: {violation}")
        dump_blackboxes(args.blackbox_dir)
        return 0 if outcome.ok else 1

    last_tick = [0.0]

    def progress(done: int, report: ChaosReport) -> None:
        now = time.monotonic()
        if now - last_tick[0] >= 5.0 or done == args.cases:
            last_tick[0] = now
            print(
                f"  {done}/{args.cases} cases, {report.completed} completed, "
                f"{len(report.violations)} violation(s), {report.elapsed:.1f}s",
                file=sys.stderr,
            )

    report = run_chaos_suite(args.cases, start_seed=args.start_seed, progress=progress)
    print(report.format())
    dump_blackboxes(args.blackbox_dir)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
