"""Pull-based block-iterator operator interface (Section 2.2.3).

Each operator calls ``next()`` on its child and receives a batch of
tuples (or ``None`` at end of stream): a :class:`~repro.engine.blocks.
Block` stamped with the logical ~100-tuple blocks it stands for, each of
which is charged one ``blocks_produced`` and one governance checkpoint
as it is handed over.  Operators are agnostic about the database schema
and work on generic column dictionaries.

When the context carries a :class:`~repro.obs.trace.SpanTracer`, the
public ``open()``/``next()``/``close()`` methods additionally record a
span per call: wall time plus the :class:`~repro.cpusim.events.CostEvents`
delta across the call, attributed exclusively (child-operator work is
subtracted out by the tracer's stack).  With the default
``tracer is None`` the traced branches are skipped entirely.
"""

from __future__ import annotations

import abc

from repro.engine.blocks import Block, as_batch
from repro.engine.context import ExecutionContext
from repro.errors import EngineError


class Operator(abc.ABC):
    """One node of a query plan."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._opened = False
        #: The batch computed but not yet handed over (:meth:`_pop`).
        self._held: Block | None = None

    @property
    def events(self):
        return self.context.events

    def describe(self) -> str:
        """One-line span annotation for EXPLAIN/trace output (hook)."""
        return ""

    def _governance_check(self) -> None:
        """One cooperative checkpoint (deadline/cancellation).

        Called per ``next()`` by the base class and again inside the
        scanners' per-page loops, so a cancel or deadline lands within
        one page's worth of work even when a single ``_next()`` decodes
        many pages (or, for the late-materialized architectures, the
        entire column).
        """
        governance = self.context.governance
        if governance is not None:
            governance.check(type(self).__name__)

    def open(self) -> None:
        """Prepare for iteration; children are opened first."""
        tracer = self.context.tracer
        if tracer is None:
            for child in self.children():
                child.open()
            self._open()
            self._opened = True
            return
        frame = tracer.enter(self, "open")
        try:
            for child in self.children():
                child.open()
            self._open()
            self._opened = True
        finally:
            tracer.exit(frame, self.context.events)

    def next(self, want: int | None = None) -> Block | None:
        """The next batch of tuples, or ``None`` when exhausted.

        ``want`` is a demand hint — how many tuples the caller can still
        use (a :class:`~repro.engine.operators.limit.Limit` knows) — and
        an operator that holds a batch ends it at the first logical-block
        boundary at or past ``want``; one that does not care ignores it.
        """
        if not self._opened:
            raise EngineError(f"{type(self).__name__}.next() before open()")
        governance = self.context.governance
        if governance is not None:
            governance.check(type(self).__name__)
        tracer = self.context.tracer
        if tracer is None:
            block = self._next(want)
            if block is not None and len(block):
                self._hand_over(block.num_blocks, governance)
            return block
        frame = tracer.enter(self, "next")
        rows = 0
        blocks = 0
        try:
            block = self._next(want)
            if block is not None and len(block):
                rows = len(block)
                blocks = block.num_blocks
                self._hand_over(blocks, governance)
            return block
        finally:
            tracer.exit(frame, self.context.events, rows=rows, blocks=blocks)

    def _hand_over(self, blocks: int, governance) -> None:
        """Charge a batch's logical blocks: one hand-off and — past the
        one the call itself made — one checkpoint each."""
        self.events.blocks_produced += blocks
        if governance is not None:
            for _block in range(1, blocks):
                governance.check(type(self).__name__)

    def _pop(self, want: int | None) -> Block | None:
        """Hand over the held batch, or as much of it as ``want`` asks for."""
        block, self._held = self._held, None
        if block is not None and want is not None:
            block, self._held = block.split(want)
        return block

    def close(self) -> None:
        """Release state; children are closed last."""
        tracer = self.context.tracer
        if tracer is None:
            self._close()
            for child in self.children():
                child.close()
            self._opened = False
            return
        frame = tracer.enter(self, "close")
        try:
            self._close()
            for child in self.children():
                child.close()
            self._opened = False
        finally:
            tracer.exit(frame, self.context.events)

    def children(self) -> list["Operator"]:
        """Child operators (empty for scanners)."""
        return []

    def _open(self) -> None:
        """Subclass hook."""

    @abc.abstractmethod
    def _next(self, want: int | None) -> Block | None:
        """Subclass hook: produce the next batch (``want``: see :meth:`next`)."""

    def _close(self) -> None:
        """Subclass hook."""

    def drain(self) -> list[Block]:
        """Run the subtree to completion (open/next*/close)."""
        self.open()
        blocks = []
        while True:
            block = self.next()
            if block is None:
                break
            blocks.append(block)
        self.close()
        return blocks


class RunOnce(Operator):
    """An operator that does all its work inside the first ``next()``:
    the materializing operators, and the scans that run to completion."""

    def _open(self) -> None:
        super()._open()
        self._held = None
        self._done = False

    def _next(self, want: int | None) -> Block | None:
        if not self._done:
            output = self._compute()
            if output is not None:
                self._held = as_batch(output, self.context.block_size)
            self._done = True
        return self._pop(want)

    def _compute(self) -> Block | None:
        """Run to completion: the whole output, or ``None`` for none (hook)."""
        raise NotImplementedError
