"""Shared execution state: event counters and hardware constants."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpusim.events import CostEvents
from repro.engine.blocks import DEFAULT_BLOCK_SIZE
from repro.engine.governance import QueryContext
from repro.obs import metrics as obs_metrics
from repro.obs.trace import SpanTracer
from repro.storage.scrub import CorruptionReport


@dataclass
class ExecutionContext:
    """Threaded through every operator of one plan execution."""

    calibration: Calibration = DEFAULT_CALIBRATION
    block_size: int = DEFAULT_BLOCK_SIZE
    #: Evaluate SARGable predicates directly on dictionary codes where
    #: possible, decoding only qualifying values (extension; see
    #: :mod:`repro.engine.compressed_exec`).
    compressed_execution: bool = False
    #: Strict (default): an undecodable page aborts the query with
    #: :class:`~repro.errors.ChecksumError`.  Salvage (``False``): the
    #: page is skipped, its rows are dropped consistently across every
    #: scan node, and the damage lands in :attr:`corruption`.
    strict_integrity: bool = True
    events: CostEvents = field(default_factory=CostEvents)
    #: Pages skipped by salvage-mode scans during this execution.
    corruption: CorruptionReport = field(default_factory=CorruptionReport)
    #: Per-operator span tracing (see :mod:`repro.obs.trace`).  ``None``
    #: (the default) keeps the operator layer on its untraced fast path.
    tracer: SpanTracer | None = None
    #: Lifecycle policy — deadline, cancellation token, memory budget
    #: (see :mod:`repro.engine.governance`).  ``None`` (the default)
    #: skips every governance checkpoint.
    governance: QueryContext | None = None
    #: ``(seconds, pages)`` of every window or page the reader decoded
    #: for this query, folded into ``repro_page_decode_seconds`` once,
    #: when the query ends (:meth:`observe_decodes`).  Only appended to,
    #: so partitions on pool threads share a caller's without a lock.
    decodes: list = field(default_factory=list)

    def observe_decodes(self) -> None:
        """Fold the decodes timed so far into ``repro_page_decode_seconds``
        as one observation of their pages, and forget them: once per
        query, at ``run_scan``'s and ``parallel_query``'s end and at the
        scheduler's completion of a query."""
        decodes = self.decodes
        taken = len(decodes)
        if taken:
            seconds = pages = 0
            for spent, run in decodes[:taken]:
                seconds += spent
                pages += run
            del decodes[:taken]
            obs_metrics.PAGE_DECODE_SECONDS.observe(seconds / pages, pages)

    @property
    def label(self) -> str | None:
        """The query's governance label: what its lifecycle events carry."""
        return self.governance.label if self.governance is not None else None
