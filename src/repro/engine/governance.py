"""Per-query lifecycle governance: deadlines, cancellation, memory budgets.

The engine's run-to-completion scanners (the paper's Section 4 design)
have no notion of "stop": a slow partition, a runaway sort, or a dead
worker can hang or OOM the whole query.  This module adds the three
cooperative controls every governed query carries in one
:class:`QueryContext` hung off
:attr:`~repro.engine.context.ExecutionContext.governance`:

* a wall-clock **deadline** — checked in every ``Operator.next()`` and
  in the page loops of all four scanner architectures; expiry raises
  :class:`~repro.errors.QueryTimeout`;
* a **cancellation token** — an out-of-band flag (another thread, a
  signal handler, a supervisor) checked at the same points; raises
  :class:`~repro.errors.QueryCancelled`;
* a **memory budget** — accounted at logical-block granularity by the
  materializing operators (sort, hash- and sort-based aggregation)
  through :class:`GovernedAccumulator`.  A reservation that would blow
  the budget first triggers a *reduced-width retry* (accumulated int64
  columns and positions are narrowed to the smallest dtype holding
  their values); only if the narrowed working set still does not fit
  does the operator abort, spill-free, with
  :class:`~repro.errors.MemoryBudgetExceeded`.

Every control is cooperative and raises *out* of the plan: a governed
query either completes, degrades, or fails fast with a typed
:class:`~repro.errors.GovernanceError` — partial results are never
observable.  With ``governance is None`` (the default) the operator
layer pays one attribute load and a branch per check site.

:class:`CircuitBreaker` and :class:`SupervisionPolicy` configure the
parallel executor's supervision ladder (see
:mod:`repro.engine.parallel`): per-worker heartbeats and deadlines,
kill-and-retry of single partitions, worker-count degradation, and
breaker-directed salvage routing for partitions that fail repeatedly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine.blocks import Block, concat_blocks
from repro.errors import (
    GovernanceError,  # noqa: F401  (re-exported for callers)
    MemoryBudgetExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.obs import recorder as flight

__all__ = [
    "CancellationToken",
    "CircuitBreaker",
    "GovernanceError",
    "GovernedAccumulator",
    "QueryContext",
    "SupervisionPolicy",
    "block_nbytes",
    "narrow_block",
]


class CancellationToken:
    """A one-way flag that asks a running query to stop.

    Cooperative: the engine polls the token at block granularity, so a
    cancel lands at the next check site, not instantly.  Tokens are
    single-use per logical request but may be shared by several queries
    (cancel a whole session at once).
    """

    __slots__ = ("_cancelled", "_reason")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "") -> None:
        """Trip the token; later checks raise ``QueryCancelled``."""
        self._cancelled = True
        if reason and not self._reason:
            self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason


@dataclass
class QueryContext:
    """Lifecycle policy and accounting for one query execution.

    Build one with :meth:`start` (relative timeout) or directly with an
    absolute ``deadline`` (``time.monotonic()`` seconds — valid across
    forked workers, which share the monotonic clock).
    """

    #: Absolute ``time.monotonic()`` second the query must finish by.
    deadline: float | None = None
    #: Working-set budget in bytes for materializing operators.
    memory_budget: int | None = None
    token: CancellationToken = field(default_factory=CancellationToken)
    #: Where the policy came from (annotates errors and EXPLAIN output).
    label: str = "query"

    # --- accounting (mutated during execution) ---------------------------
    memory_used: int = 0
    memory_peak: int = 0
    ticks: int = 0
    narrow_retries: int = 0
    #: Human-readable governance outcomes, in order of occurrence
    #: (degradations, retries, narrowing, breaker trips, aborts).
    outcomes: list[str] = field(default_factory=list)
    #: Called with this context on every check — heartbeat writers and
    #: the chaos harness hook in here.  Never pickled.
    on_tick: Callable[["QueryContext"], None] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def start(
        cls,
        timeout: float | None = None,
        memory_budget: int | None = None,
        token: CancellationToken | None = None,
        label: str = "query",
    ) -> "QueryContext":
        """A context whose deadline is ``timeout`` seconds from now."""
        if timeout is not None and timeout < 0:
            raise GovernanceError(f"negative query timeout: {timeout}")
        if memory_budget is not None and memory_budget <= 0:
            raise GovernanceError(f"non-positive memory budget: {memory_budget}")
        return cls(
            deadline=None if timeout is None else time.monotonic() + timeout,
            memory_budget=memory_budget,
            token=token or CancellationToken(),
            label=label,
        )

    # --- deadline / cancellation ----------------------------------------

    def remaining(self) -> float | None:
        """Seconds until the deadline (may be negative), or ``None``."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self, where: str = "") -> None:
        """One cooperative checkpoint; raises the typed error when due.

        Called per ``Operator.next()`` and per scanner page — cheap
        (a counter bump, a flag test, one ``monotonic()`` read) relative
        to decoding a page.
        """
        self.ticks += 1
        hook = self.on_tick
        if hook is not None:
            hook(self)
        if self.token.cancelled:
            detail = self.token.reason or "cancellation token tripped"
            self.note(f"cancelled in {where or 'plan'}: {detail}")
            flight.record(
                "governance.cancel",
                self.label,
                where=where or "plan",
                reason=detail,
            )
            raise QueryCancelled(f"{self.label} cancelled ({detail})")
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.note(f"deadline exceeded in {where or 'plan'}")
            flight.record(
                "governance.timeout",
                self.label,
                where=where or "plan",
                overdue_s=round(-self.remaining(), 6),
            )
            raise QueryTimeout(
                f"{self.label} exceeded its deadline "
                f"(overdue by {-self.remaining():.3f}s at {where or 'plan'})"
            )

    # --- memory budget ----------------------------------------------------

    def try_reserve(self, nbytes: int) -> bool:
        """Commit ``nbytes`` if it fits the budget; False if it would not."""
        if nbytes < 0:
            raise GovernanceError(f"negative memory reservation: {nbytes}")
        if (
            self.memory_budget is not None
            and self.memory_used + nbytes > self.memory_budget
        ):
            return False
        self.memory_used += nbytes
        if self.memory_used > self.memory_peak:
            self.memory_peak = self.memory_used
        return True

    def release(self, nbytes: int) -> None:
        self.memory_used = max(0, self.memory_used - nbytes)

    def budget_abort(self, what: str, needed: int) -> None:
        """Record and raise the spill-free typed abort."""
        flight.record(
            "governance.budget_abort", self.label, what=what, needed=needed
        )
        self.note(
            f"memory budget exceeded in {what}: needed {needed:,} B "
            f"(+{self.memory_used:,} B held) of {self.memory_budget:,} B"
        )
        raise MemoryBudgetExceeded(
            f"{self.label}: {what} needs {needed:,} B beyond the "
            f"{self.memory_budget:,} B budget ({self.memory_used:,} B held) "
            "even after a reduced-width retry"
        )

    # --- reporting --------------------------------------------------------

    def note(self, event: str) -> None:
        """Append one governance outcome (kept short; feeds EXPLAIN)."""
        self.outcomes.append(event)

    def snapshot(self) -> dict:
        """Serializable summary for ``info`` dicts and profiles."""
        return {
            "deadline_remaining_s": self.remaining(),
            "memory_budget": self.memory_budget,
            "memory_peak": self.memory_peak,
            "ticks": self.ticks,
            "narrow_retries": self.narrow_retries,
            "cancelled": self.token.cancelled,
            "outcomes": list(self.outcomes),
        }


# --- block-granular memory accounting --------------------------------------


def block_nbytes(block: Block) -> int:
    """The working-set bytes one block pins: columns plus positions."""
    return int(block.positions.nbytes) + sum(
        int(column.nbytes) for column in block.columns.values()
    )


def _narrow_dtype(values: np.ndarray) -> np.dtype | None:
    """The smallest signed dtype holding ``values``, if narrower."""
    if values.dtype.kind != "i" or values.dtype.itemsize <= 2 or not values.size:
        return None
    lo, hi = int(values.min()), int(values.max())
    for candidate in (np.int16, np.int32):
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            if np.dtype(candidate).itemsize < values.dtype.itemsize:
                return np.dtype(candidate)
            return None
    return None


def narrow_block(block: Block) -> Block:
    """The reduced-width image of one block (value-preserving).

    Integer columns and the positions array are downcast to the
    smallest dtype that holds their actual values; comparisons, stable
    sorts, group detection, and aggregation arithmetic all commute with
    the narrowing, and :class:`GovernedAccumulator` widens the merged
    result back to the original dtypes before it leaves the operator.
    """
    columns = {}
    changed = False
    for name, values in block.columns.items():
        dtype = _narrow_dtype(values)
        if dtype is not None:
            columns[name] = values.astype(dtype)
            changed = True
        else:
            columns[name] = values
    positions = block.positions
    dtype = _narrow_dtype(positions)
    if dtype is not None:
        positions = positions.astype(dtype)
        changed = True
    if not changed:
        return block
    return Block(columns=columns, positions=positions)


class GovernedAccumulator:
    """Accumulate child blocks under the query's memory budget.

    The materializing operators (sort, hash/sort aggregation) drain
    their child through one of these: each incoming block reserves its
    bytes against the :class:`QueryContext` budget.  On the first
    reservation that does not fit, the accumulator attempts the
    *reduced-width retry* — every held block (and the incoming one) is
    narrowed via :func:`narrow_block` and the reservation re-measured.
    If the narrow working set fits, accumulation continues at reduced
    width (later blocks are narrowed on arrival); if not, the operator
    aborts spill-free with :class:`~repro.errors.MemoryBudgetExceeded`.

    :meth:`finish` concatenates, widens back to the original dtypes,
    and releases the reservation — the budget bounds the *working set*
    of in-flight materialization, not the final result handed
    downstream.
    """

    def __init__(self, governance: QueryContext | None, what: str):
        self.governance = governance
        self.what = what
        self.blocks: list[Block] = []
        self.reserved = 0
        self.narrowed = False
        self._dtypes: dict[str, np.dtype] = {}
        self._positions_dtype: np.dtype | None = None

    def add(self, block: Block) -> None:
        """Account and hold one child batch.

        Without a budget it is held whole.  Under one it is reserved a
        logical block at a time, so where the budget runs out — and what
        narrowing saves, block by block — does not depend on how many
        blocks the child handed over at once.
        """
        if not len(block):
            return
        for name, values in block.columns.items():
            self._dtypes.setdefault(name, values.dtype)
        if self._positions_dtype is None:
            self._positions_dtype = block.positions.dtype
        governance = self.governance
        if governance is None or governance.memory_budget is None:
            self.blocks.append(block)
            return
        for piece in block.logical_blocks():
            self._reserve(governance, piece)

    def _reserve(self, governance: QueryContext, block: Block) -> None:
        if self.narrowed:
            block = narrow_block(block)
        nbytes = block_nbytes(block)
        if governance.try_reserve(nbytes):
            self.blocks.append(block)
            self.reserved += nbytes
            return
        # Reduced-width retry: narrow the whole working set once.
        if not self.narrowed:
            narrow = [narrow_block(held) for held in self.blocks]
            incoming = narrow_block(block)
            total = sum(block_nbytes(b) for b in narrow) + block_nbytes(incoming)
            governance.release(self.reserved)
            if governance.try_reserve(total):
                governance.narrow_retries += 1
                flight.record(
                    "governance.narrow_retry", governance.label, what=self.what, kept=total
                )
                governance.note(
                    f"{self.what}: reduced-width retry kept the working set "
                    f"at {total:,} B (was {self.reserved + nbytes:,} B)"
                )
                self.blocks = narrow
                self.blocks.append(incoming)
                self.reserved = total
                self.narrowed = True
                return
            # Re-hold the original reservation so the abort message (and
            # any outer accounting) reflects what the operator pinned.
            self.reserved = 0
            governance.budget_abort(self.what, needed=total)
        governance.budget_abort(self.what, needed=self.reserved + nbytes)

    def finish(self) -> Block:
        """The merged input at original dtypes; releases the reservation."""
        merged = concat_blocks(self.blocks)
        if self.narrowed:
            columns = {
                name: values.astype(self._dtypes[name])
                if values.dtype != self._dtypes[name]
                else values
                for name, values in merged.columns.items()
            }
            positions = merged.positions
            if (
                self._positions_dtype is not None
                and positions.dtype != self._positions_dtype
            ):
                positions = positions.astype(self._positions_dtype)
            merged = Block(columns=columns, positions=positions)
        if self.governance is not None and self.reserved:
            self.governance.release(self.reserved)
            self.reserved = 0
        self.blocks = []
        return merged


# --- parallel supervision configuration ------------------------------------


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the parallel executor's supervision ladder.

    The supervisor sleeps in ``multiprocessing.connection.wait`` on its
    busy workers' pipes and process sentinels, so a finished partition
    or a dead worker wakes it at once; the times below only bound how
    long it waits when nothing happens.
    """

    #: Supervised workers write their shared-memory heartbeat slot at
    #: most this often (seconds).
    heartbeat_interval: float = 0.05
    #: Silence from a worker that is alive and busy for this long marks
    #: its partition stalled (wedged or starved).  A dead worker is seen
    #: through its sentinel immediately, not through this timeout.
    stall_timeout: float = 15.0
    #: Ceiling on the time between two parent-side governance checks
    #: (cancellation token, deadline) while partitions are outstanding.
    #: Never a latency floor: results wake the supervisor themselves.
    poll_interval: float = 0.02
    #: Overall dispatch guard for queries whose workers do not beat
    #: (no governance, breaker or injected fault).
    max_dispatch_seconds: float = 120.0


class CircuitBreaker:
    """Per-:class:`~repro.database.Database` memory of failing partitions.

    Keys are ``(table, partition index, row range)`` tuples.  After
    ``threshold`` recorded failures the breaker *opens* for that
    partition and the parallel executor routes it straight to a
    salvage-mode serial scan (skip-don't-crash) instead of burning
    another worker on it; a later clean non-salvage success closes it.
    """

    def __init__(self, threshold: int = 2):
        if threshold < 1:
            raise GovernanceError(f"breaker threshold must be >= 1: {threshold}")
        self.threshold = threshold
        self.failures: dict[tuple, int] = {}
        self.trips = 0

    def record_failure(self, key: tuple) -> bool:
        """Count one failure; True when this trip just opened the breaker."""
        count = self.failures.get(key, 0) + 1
        self.failures[key] = count
        if count == self.threshold:
            self.trips += 1
            flight.record("governance.breaker_trip", key=str(key))
            return True
        return False

    def record_success(self, key: tuple) -> None:
        """A clean (non-salvage) success closes the breaker for this key."""
        self.failures.pop(key, None)

    def is_open(self, key: tuple) -> bool:
        return self.failures.get(key, 0) >= self.threshold

    def open_keys(self) -> list[tuple]:
        return sorted(k for k in self.failures if self.is_open(k))
