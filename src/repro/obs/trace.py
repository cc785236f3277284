"""Operator span tracing: per-plan-node wall time and cost attribution.

The engine counts its micro-work in one plan-global
:class:`~repro.cpusim.events.CostEvents`; this module splits that total
back out **per operator**.  :class:`SpanTracer` hangs off
:attr:`~repro.engine.context.ExecutionContext.tracer` and the base
:class:`~repro.engine.operators.base.Operator` calls
:meth:`SpanTracer.enter` / :meth:`SpanTracer.exit` around every public
``open()`` / ``next()`` / ``close()``.  Each call window records:

* wall-clock duration (``perf_counter_ns``);
* the *delta* of the shared ``CostEvents`` across the window, with the
  inclusive deltas of any nested (child-operator) windows subtracted
  out, so a span's :attr:`OperatorSpan.events` is its **exclusive**
  work and the exclusive events of all spans sum exactly to the
  plan-total ``CostEvents``;
* blocks and rows produced (for ``next()`` windows).

With ``context.tracer is None`` (the default) the operator layer takes
an untraced fast path — one attribute load and a branch per call.

Aggregated spans feed :mod:`repro.obs.explain` (EXPLAIN ANALYZE text)
and :mod:`repro.obs.export` (Chrome ``trace_event`` JSON, flat
profiles); the raw per-call :class:`TraceSlice` list feeds the Chrome
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.cpusim.events import CostEvents

__all__ = ["OperatorSpan", "SpanTracer", "TraceSlice"]


@dataclass(frozen=True)
class TraceSlice:
    """One timed operator call (an ``X`` event in Chrome trace terms)."""

    span_id: int
    name: str
    phase: str        #: ``open`` | ``next`` | ``close``
    start_ns: int     #: relative to the tracer's epoch
    duration_ns: int
    #: Execution track: 0 is the parent query thread; parallel worker
    #: processes get tracks 1..N (rendered as separate Perfetto threads).
    track: int = 0


@dataclass
class OperatorSpan:
    """Aggregated measurements for one plan node across one (or more)
    executions under the same tracer."""

    span_id: int
    name: str                 #: operator class name
    detail: str = ""          #: operator-provided annotation
    children: list["OperatorSpan"] = field(default_factory=list)
    open_ns: int = 0          #: inclusive wall time in ``open()``
    next_ns: int = 0          #: inclusive wall time across ``next()`` calls
    close_ns: int = 0         #: inclusive wall time in ``close()``
    self_ns: int = 0          #: exclusive wall time (children subtracted)
    next_calls: int = 0
    blocks: int = 0           #: non-empty blocks returned by ``next()``
    rows: int = 0             #: tuples across those blocks
    #: Exclusive cost-event delta: work this node did itself.
    events: CostEvents = field(default_factory=CostEvents)

    @property
    def wall_ns(self) -> int:
        """Inclusive wall time across all three phases."""
        return self.open_ns + self.next_ns + self.close_ns

    def inclusive_events(self) -> CostEvents:
        """This node's events plus everything below it."""
        total = CostEvents()
        total.merge(self.events)
        for child in self.children:
            total.merge(child.inclusive_events())
        return total

    def walk(self):
        """Yield ``(span, depth)`` preorder."""
        stack = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))


class _Frame:
    """One in-flight traced call on the tracer's stack."""

    __slots__ = ("span", "phase", "start_ns", "mark", "child_incl", "child_wall_ns")

    def __init__(self, span: OperatorSpan, phase: str, start_ns: int, mark: CostEvents):
        self.span = span
        self.phase = phase
        self.start_ns = start_ns
        self.mark = mark
        self.child_incl = CostEvents()
        self.child_wall_ns = 0


class SpanTracer:
    """Collects an operator span tree plus raw timeline slices.

    Spans are keyed by operator identity, so re-executing the same plan
    object under one tracer accumulates into the same tree.
    """

    def __init__(self, record_slices: bool = True, max_slices: int = 200_000):
        self.roots: list[OperatorSpan] = []
        self.record_slices = record_slices
        self.max_slices = max_slices
        self.slices: list[TraceSlice] = []
        self.dropped_slices = 0
        self.epoch_ns = time.perf_counter_ns()
        self._spans: dict[int, OperatorSpan] = {}
        self._stack: list[_Frame] = []
        self._next_id = 1

    # --- span registry -----------------------------------------------------

    def span_for(self, operator) -> OperatorSpan:
        """The span for one operator, created (and parented) on first use."""
        key = id(operator)
        span = self._spans.get(key)
        if span is None:
            span = OperatorSpan(
                span_id=self._next_id,
                name=type(operator).__name__,
                detail=operator.describe(),
            )
            self._next_id += 1
            self._spans[key] = span
            if self._stack:
                self._stack[-1].span.children.append(span)
            else:
                self.roots.append(span)
        return span

    def spans(self) -> list[OperatorSpan]:
        """Every span, preorder from the roots."""
        return [span for root in self.roots for span, _ in root.walk()]

    # --- call windows ------------------------------------------------------

    def enter(self, operator, phase: str) -> _Frame:
        """Begin a traced call; returns the frame to pass to :meth:`exit`."""
        frame = _Frame(
            self.span_for(operator),
            phase,
            time.perf_counter_ns(),
            operator.context.events.snapshot(),
        )
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, events: CostEvents, rows: int = 0, blocks: int = 0) -> None:
        """End a traced call, attributing its wall time and event delta."""
        duration_ns = time.perf_counter_ns() - frame.start_ns
        top = self._stack.pop()
        if top is not frame:  # pragma: no cover - defensive
            raise RuntimeError("span tracer stack corrupted (unbalanced enter/exit)")
        inclusive = events.diff(frame.mark)
        span = frame.span
        span.events.merge(inclusive.diff(frame.child_incl))
        span.self_ns += duration_ns - frame.child_wall_ns
        if frame.phase == "open":
            span.open_ns += duration_ns
        elif frame.phase == "close":
            span.close_ns += duration_ns
        else:
            span.next_ns += duration_ns
            span.next_calls += 1
        span.blocks += blocks
        span.rows += rows
        if self._stack:
            parent = self._stack[-1]
            parent.child_incl.merge(inclusive)
            parent.child_wall_ns += duration_ns
        if self.record_slices:
            if len(self.slices) < self.max_slices:
                self.slices.append(
                    TraceSlice(
                        span_id=span.span_id,
                        name=span.name,
                        phase=frame.phase,
                        start_ns=frame.start_ns - self.epoch_ns,
                        duration_ns=duration_ns,
                    )
                )
            else:
                self.dropped_slices += 1

    # --- stitching partition trees ------------------------------------------

    def attach_subtree(
        self,
        roots: list[OperatorSpan],
        slices: list[TraceSlice],
        track: int = 0,
        under: OperatorSpan | None = None,
        epoch_ns: int | None = None,
    ) -> None:
        """Graft spans recorded by another tracer into this tree.

        Used by :mod:`repro.engine.parallel` to stitch partition span
        trees into the caller's trace.  Span ids are renumbered into
        this tracer's id space (and slice span ids remapped to match);
        slices are tagged with ``track`` so exporters can render each
        worker on its own thread.  When the worker tracer's ``epoch_ns``
        is given, slice timestamps are rebased onto this tracer's epoch
        (``perf_counter_ns`` is monotonic across the process's threads).  ``under`` parents the subtree below
        an existing span — e.g. the gather node that consumed the
        workers' output — keeping ``total_events()`` equal to the
        parent-context plan total.
        """
        mapping: dict[int, int] = {}

        def renumber(span: OperatorSpan) -> None:
            mapping[span.span_id] = self._next_id
            span.span_id = self._next_id
            self._next_id += 1
            for child in span.children:
                renumber(child)

        for root in roots:
            renumber(root)
        if under is not None:
            under.children.extend(roots)
        else:
            self.roots.extend(roots)
        if not self.record_slices:
            return
        offset = 0 if epoch_ns is None else epoch_ns - self.epoch_ns
        for piece in slices:
            if len(self.slices) >= self.max_slices:
                self.dropped_slices += 1
                continue
            self.slices.append(
                replace(
                    piece,
                    span_id=mapping.get(piece.span_id, piece.span_id),
                    start_ns=piece.start_ns + offset,
                    track=track,
                )
            )

    # --- aggregates --------------------------------------------------------

    def total_events(self) -> CostEvents:
        """Sum of every span's exclusive events.

        Equals the plan-total ``CostEvents`` when the context's counters
        started at zero: every counter mutation happens inside some
        operator's open/next/close window, and exclusive deltas
        partition each window's inclusive delta.
        """
        total = CostEvents()
        for root in self.roots:
            total.merge(root.inclusive_events())
        return total

    @property
    def total_wall_ns(self) -> int:
        return sum(root.wall_ns for root in self.roots)
