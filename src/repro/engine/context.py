"""Shared execution state: event counters and hardware constants."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpusim.events import CostEvents
from repro.engine.blocks import DEFAULT_BLOCK_SIZE
from repro.engine.governance import QueryContext
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

    @property
    def label(self) -> str | None:
        """The query's governance label: what its lifecycle events carry."""
        return self.governance.label if self.governance is not None else None
