"""Shared scans: many queries riding one circular table scan.

Section 2.1.1 of the paper notes that concurrent queries over the same
table can be served off a *single* reading stream (Teradata, RedBrick,
QPipe); Figure 11 measures the competing-scans regime this avoids.  The
engine-side implementation lives here:

* :class:`SharedScanStream` — one circular pass over a table's row
  file or needed column set.  A *segment* (one driving page's worth of
  rows) is its unit of accounting: pages are charged, checkpoints passed
  and faults recorded segment by segment.  A *run* (adjacent segments,
  as many as the caller asks for, within one window) is its unit of
  delivery: whoever pumps the stream drives it a run at a time, and
  every attached consumer receives the part of the run it still needs,
  and reads and is charged for exactly that.  A *window* (a prefetch
  window of adjacent segments, a serial scan's size) is its unit of
  reading: each file under a window is read and checked through the scan
  core's one window reader, a healthy window per numpy call.  A column
  window is decoded; a row or PAX window keeps the checked pages, which
  each rider reads through the serial scan's read step.  The
  stream's I/O (pages touched, bytes read) is accounted **once**, per
  logical page as each segment is delivered, on the stream's own
  :class:`~repro.cpusim.events.CostEvents`, mirroring the iosim
  shared-stream model (:mod:`repro.iosim.sharing`), while decode and
  predicate CPU is charged **per consumer** — each query still pays to
  process the delivered values.
* :class:`SharedScanConsumer` — a :class:`~repro.engine.operators.
  scan_core.Scanner` view of one query's ride on the stream.  A consumer
  attaches *mid-flight* at the stream's current position, rides to the
  end, wraps around for the prefix it missed (circular scan), and
  detaches after exactly one full pass.  Each delivery is filtered and
  projected in one pass and charged once, the sum of its segments'
  numbers: a rider holds no row of a segment it has not been delivered.
  Output is re-assembled into global Record-ID order before emission,
  so the result is byte-identical to a cold serial scan.
* :class:`ScanShareManager` — the attach point: a query joins the live
  stream of its :func:`share_key` — its riders running, or still queued
  for admission — and otherwise opens it.  A row or PAX page holds
  whole tuples, so a paged table's key is the table and integrity mode
  alone and its one stream serves every projection; a column table's
  key also names the column set.  A stream is dropped with its last
  rider, or once a query of its key finds it failed; its I/O totals
  stay.

Salvage mode drops the union of corrupt-page row spans across the
stream's files — exactly the rows a serial salvage scan would lose —
and records the damage per consumer.  Under strict integrity a page
that fails the stream's checks fails the whole stream with the same
typed error every rider would have hit scanning alone; a row or PAX
page whose values alone do not decode reaches only the riders that read
them, each under its own policy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, as_batch, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan_core import (
    SALVAGEABLE_ERRORS,
    Scanner,
    decode_tuple_pages,
    guarded_pages,
    guarded_units,
    window_pages,
)
from repro.engine.predicate import Predicate
from repro.engine.query import ScanQuery
from repro.errors import EngineError, PlanError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.storage.table import ColumnTable, PagedTable, Table

__all__ = [
    "ScanShareManager",
    "SharedScanConsumer",
    "SharedScanStream",
    "share_key",
]


def share_key(table: Table, query: ScanQuery, strict_integrity: bool) -> tuple:
    """The attach-compatibility key: same table and integrity mode, and
    on a column table the same column set.

    A row or PAX stream pumps whole pages, which every projection reads
    from, so a paged key leaves the column set out.  A column stream
    reads one file per column, so its key fixes the columns."""
    if isinstance(table, PagedTable):
        return (id(table), strict_integrity)
    return (id(table), frozenset(query.scan_attributes()), strict_integrity)


@dataclass(slots=True)
class _Source:
    """One file under a stream: how it reads, and what segments draw on it."""

    #: The file's name, and the table or column file that has it:
    #: ``owner.file`` is looked up when a window opens (a fault plan
    #: wraps it in place).
    name: str
    owner: object
    #: ``decode(data, at, run, verify)`` of ``run`` pages read back to
    #: back — a window, or one page alone: the callback of
    #: :func:`~repro.engine.operators.scan_core.guarded_units`, through
    #: ``decode_tuple_pages``: ``{attribute: values}``, or the row file's bytes.
    decode: Callable
    first_row: Callable[[int], int]
    span_of: Callable[[int], int]
    #: Segment ``i`` draws on pages ``first[i]`` to ``last[i]`` (a row
    #: file: page ``i``, both a ``range``).
    first: Sequence[int]
    last: Sequence[int]
    #: The modeled buffer of a column file — the ids of the last pages
    #: charged for it, oldest first; ``None`` for a row file (it has none).
    fifo: dict[int, None] | None


@dataclass(slots=True)
class _Feed:
    """One source's share of a window: its pages, pulled a piece at a time."""

    #: Ascending page ids the window reads: its page range, less the
    #: known-lost pages when there are any.
    pages: Sequence[int]
    #: The window reader over them; lazy, so a page's error is raised by
    #: the delivery that first draws on it (``None`` once all are pulled).
    pieces: Iterator | None
    #: ``pages[:at]`` have been pulled into the window.
    at: int = 0


@dataclass(slots=True)
class _Window:
    """The run of segments a stream is serving: the real buffer."""

    #: Segments ``[first, stop)``.
    first: int
    stop: int
    #: The ``k``-th segment holds rows ``lo + bounds[k]`` to ``lo + bounds[k + 1]``.
    lo: int
    bounds: np.ndarray
    #: Full width, zero where invalid or not yet pulled; an attribute
    #: is in only once a piece of it came (:meth:`column`).
    columns: dict[str, np.ndarray]
    #: False where a lost page's span fell.
    valid: np.ndarray
    #: The stream's dtype per attribute.
    dtypes: dict[str, np.dtype]
    feeds: list[_Feed] = field(default_factory=list)
    #: A row file's pulled pages, ``(first page, buffer)`` per run of adjacent ones.
    units: list[tuple[int, bytes]] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        """Attribute ``name`` over the whole window: a piece that covered
        it, else zeros to pull pieces into."""
        column = self.columns.get(name)
        if column is None:
            column = self.columns[name] = np.zeros(len(self.valid), dtype=self.dtypes[name])
        return column

    def rows_of(self, first_row: int, count: int) -> tuple[int, int, int]:
        """``(start, stop, skipped)``: where rows ``[first_row, first_row
        + count)`` fall in the window, and how many precede it."""
        start = first_row - self.lo
        skipped = max(0, -start)
        stop = min(len(self.valid), start + count)
        return start + skipped, max(start + skipped, stop), skipped


def _no_checkpoint() -> None:
    """A stream is governed by no query: its riders check, per segment pumped."""


def _needed_until(remaining: set[int], start: int, limit: int) -> int:
    """Where the adjacent segments of ``remaining`` from ``start`` end, ``limit`` at most."""
    while start < limit and start in remaining:
        start += 1
    return start


def _exact(value, dtype: np.dtype) -> bool:
    """Whether ``value`` is one value of ``dtype``'s kind that converts to
    it exactly: comparing a column with an array of such constants then
    answers what comparing it with each constant alone does."""
    try:
        scalar = np.asarray(value)
        return (
            scalar.ndim == 0
            and scalar.dtype.kind == dtype.kind
            and np.array(value, dtype=dtype).item() == value
        )
    except (TypeError, ValueError, OverflowError):
        return False


class SharedScanStream:
    """One circular scan of ``table`` (of ``attrs``, on a column table), shared by consumers.

    A *segment* is the unit of accounting, a *run* the unit of delivery,
    a *window* the unit of reading.  Segments are the driving file's
    pages: the row file's pages (row and PAX layouts) or the pages of
    the column file with the *most* pages (column layout — its pages
    bound the finest row spans, and every other needed column is swept
    alongside it).  A window is the run of adjacent segments some rider
    still needs, at most a prefetch window of driving pages
    (``calibration.default_prefetch_depth`` I/O units, as a serial scan
    reads) and never across the wrap: each file under it is read and
    checked — CRC, placement, span and density — through the scan
    core's window reader, and a column file's pages decoded: a healthy
    window in one call, whatever its pages' verification state; one
    with a corrupt page, a short read or RLE pages page by page from
    the bytes already read, as each segment is reached.
    ``step(want)`` cuts a run of up to ``want`` segments from it per
    call — ``step()`` one, the scheduler's timeslice the rest of the
    window — and what a run
    charges, to the stream and to each rider, is the sum of what its
    segments charge one at a time, whatever the run length.

    The modeled I/O is charged at delivery, per logical page: a row page
    per delivery; a column page unless it is among the last
    ``_CACHE_PAGES`` charged for its file (the modeled buffer, which
    outlives an idle stream) or already lost.  The window is the real
    buffer and belongs to the riders: a stream without riders, or
    failed, holds no decoded data.
    """

    #: Pages the modeled buffer keeps per column file.
    _CACHE_PAGES = 4

    def __init__(
        self,
        table: Table,
        attrs: tuple[str, ...],
        strict_integrity: bool,
        calibration: Calibration = DEFAULT_CALIBRATION,
        on_empty=None,
    ):
        self.table = table
        self.attrs = tuple(attrs)
        self.strict_integrity = strict_integrity
        #: I/O accounted once for the whole stream, not per consumer.
        self.io_events = CostEvents()
        #: The stream reads under the same integrity policy as any scan,
        #: on a context of its own: its accounting is ``io_events``, and
        #: its corruption report is what every rider copies damage from.
        self._context = ExecutionContext(
            calibration=calibration,
            strict_integrity=strict_integrity,
            events=self.io_events,
        )
        #: Driving pages per window: the creating context's prefetch
        #: window, as a :class:`~repro.engine.operators.scan_core.
        #: PagedScanner`'s.
        self._window_pages = window_pages(calibration, table.page_size)
        #: Called with the stream when its last rider detaches.
        self._on_empty = on_empty
        self._consumers: list[SharedScanConsumer] = []
        self._cursor = 0
        self._failed: Exception | None = None
        self._window: _Window | None = None
        #: ``(file name, page) -> PageFault`` of every page salvage lost:
        #: such a page is never read (or charged) again.
        self._lost: dict[tuple[str, int], object] = {}
        #: Segment ``i`` holds rows ``_starts[i]`` to ``_starts[i + 1]``.
        if isinstance(table, PagedTable):
            self._starts = self._paged_starts()
            self._sources = [self._paged_source()]
        elif isinstance(table, ColumnTable):
            self._starts = self._column_starts()
            self._sources = [self._column_source(name) for name in self.attrs]
        else:
            raise PlanError(
                f"unsupported table type for sharing: {type(table).__name__}"
            )
        #: Where the last :meth:`_load` stopped: the first segment it did
        #: not pull.
        self._reached = 0
        schema = table.schema
        self._dtypes = {
            name: schema.attribute(name).attr_type.numpy_dtype() for name in self.attrs
        }
        # Segments ``[index, stop)`` draw on ``_pages_upto[stop] -
        # _pages_upto[index] + _shared_pages[index]`` pages, each counted
        # once: a page is shared only by adjacent segments, as pages and
        # segments both ascend with the rows.
        fresh = np.zeros(self.num_segments, dtype=np.int64)
        shared = np.zeros(self.num_segments, dtype=np.int64)
        for source in self._sources:
            first = np.array(source.first, dtype=np.int64)
            last = np.array(source.last, dtype=np.int64)
            joined = first[1:] == last[:-1]
            shared[1:] += joined
            fresh += last - first + 1
            fresh[1:] -= joined
        self._pages_upto = list(accumulate(fresh.tolist(), initial=0))
        self._shared_pages = shared.tolist()

    # --- geometry ---------------------------------------------------------

    def _paged_starts(self) -> np.ndarray:
        """Row/PAX: one segment per page of the one file with rows on it —
        every page full but the last."""
        table = self.table
        capacity = table.page_codec.tuples_per_page
        pages = min(table.file.num_pages, -(-table.num_rows // capacity))
        return np.minimum(np.arange(pages + 1, dtype=np.int64) * capacity, table.num_rows)

    def _column_starts(self) -> np.ndarray:
        """Column layout: one segment per page of the driving column."""
        table = self.table
        driver = self._driving_column()
        starts = [0]
        if driver is not None:
            column_file = table.column_file(driver)
            for page_id in range(column_file.file.num_pages):
                lo = column_file.first_row_of_page(page_id)
                span = column_file.row_span_of_page(page_id, table.num_rows)
                if span > 0:
                    # Its first row replaces the end of the page before.
                    starts[-1:] = [lo, lo + span]
        return np.array(starts, dtype=np.int64)

    def _driving_column(self) -> str | None:
        """The needed column with the most pages (finest segments)."""
        table = self.table
        best: str | None = None
        best_pages = -1
        for name in sorted(self.attrs):
            pages = table.column_file(name).file.num_pages
            if pages > best_pages:
                best, best_pages = name, pages
        return best

    def _paged_source(self) -> _Source:
        """Row/PAX: the one file, a page per segment, kept as checked bytes."""
        table = self.table
        capacity = table.page_codec.tuples_per_page
        pages = range(self.num_segments)
        span_of, decode = table.row_span_of_page, table.page_codec.decode_unit

        def check(data, _at, _run, verify):
            # No attribute is decoded; ``step`` keeps the bytes.
            decode_tuple_pages(span_of, table.page_size, data, verify, decode, ())
            return data

        return _Source(
            name=table.file.name,
            owner=table,
            decode=check,
            first_row=lambda page: page * capacity,
            span_of=span_of,
            first=pages,
            last=pages,
            fifo=None,
        )

    def _column_source(self, name: str) -> _Source:
        """Column layout: one attribute's file, the pages covering each segment's rows."""
        num_rows = self.table.num_rows
        column_file = self.table.column_file(name)
        starts = self._starts
        first, last = column_file.page_of_positions(np.stack([starts[:-1], starts[1:] - 1])).tolist()

        def span_of(page):
            return column_file.row_span_of_page(page, num_rows)

        def decode(data, _at, _run, verify):
            size = column_file.file.page_size
            values = decode_tuple_pages(span_of, size, data, verify, column_file.decode_unit, False)
            return {name: values[1]}

        return _Source(
            name=column_file.file.name,
            owner=column_file,
            decode=decode,
            first_row=column_file.first_row_of_page,
            span_of=span_of,
            first=first,
            last=last,
            fifo={},
        )

    @property
    def num_segments(self) -> int:
        return len(self._starts) - 1

    @property
    def window_segments(self) -> int:
        """The most segments one window, and so one run, can hold."""
        return self._window_pages

    @property
    def cursor(self) -> int:
        """The segment index the stream will serve next."""
        return self._cursor

    def _pages_drawn(self, index: int, stop: int) -> tuple[int, set]:
        """How many pages segments ``[index, stop)`` draw on, each once,
        and each file's first and last of them: the only ones a run
        before or after it can draw on too."""
        count = self._pages_upto[stop] - self._pages_upto[index] + self._shared_pages[index]
        ends = {(source.name, source.first[index]) for source in self._sources}
        ends.update((source.name, source.last[stop - 1]) for source in self._sources)
        return count, ends

    def _drawn(self, segment: int) -> list[tuple]:
        """``((file name, page id), fault)`` per page segment ``segment``
        draws on, once it is pulled: ``fault`` is ``None`` for a decoded
        page, else the stream's :class:`~repro.storage.scrub.PageFault`
        for it."""
        lost = self._lost
        return [
            ((source.name, page), lost.get((source.name, page)))
            for source in self._sources
            for page in range(source.first[segment], source.last[segment] + 1)
        ]

    @property
    def consumers(self) -> tuple:
        return tuple(self._consumers)

    @property
    def failed(self) -> Exception | None:
        return self._failed

    # --- attach / detach --------------------------------------------------

    def attach(self, consumer: "SharedScanConsumer") -> set[int]:
        """Join the stream mid-flight; one full circular pass serves you."""
        if self._failed is not None:
            raise self._failed
        self._consumers.append(consumer)
        return set(range(self.num_segments))

    def detach(self, consumer: "SharedScanConsumer") -> None:
        """Leave the stream (end of pass, failure, or cancellation)."""
        if consumer in self._consumers:
            self._consumers.remove(consumer)
            flight.record(
                "share.detach",
                consumer.context.label,
                table=self.table.schema.name,
                riders=len(self._consumers),
            )
            if not self._consumers:
                # The window goes with the last rider; the modeled
                # buffer (page ids) stays for whoever attaches next.
                self._window = None
                if self._on_empty is not None:
                    self._on_empty(self)

    @property
    def idle(self) -> bool:
        """True when no attached consumer still needs a segment."""
        return not any(c._remaining for c in self._consumers)

    # --- the circular pump ------------------------------------------------

    def step(self, want: int = 1, checkpoint: Callable[[], None] = _no_checkpoint) -> int:
        """Deliver the next run of needed segments (circularly) to its takers.

        The run starts at the first segment from the cursor that some
        consumer needs and takes the adjacent segments its takers still
        need: at most ``want`` of them, never past the end of the window
        or the wrap.  ``checkpoint()`` is passed once per segment, before
        that segment is charged; when it raises, or a strict-integrity
        decode fails, the segments before that one have been charged and
        are delivered, the cursor is left on it, and the error goes to
        whoever pumps — a decode failure as the stream's terminal error,
        to every later pump too.  Each taker receives the part of the
        run it still needs in one delivery.

        Returns how many segments were delivered: 0 when no attached
        consumer needs anything.
        """
        if self._failed is not None:
            raise self._failed
        total = self.num_segments
        if total == 0 or self.idle:
            return 0
        for offset in range(total):
            index = (self._cursor + offset) % total
            takers = [c for c in self._consumers if index in c._remaining]
            if takers:
                break
        else:
            return 0
        window = self._window_over(index)
        # A window opened from here would end a prefetch window on, at most.
        limit = window.stop if window is not None else min(total, index + self._window_pages)
        limit = min(limit, index + want)
        # Where each taker's need of adjacent segments ends.
        ends = [_needed_until(taker._remaining, index + 1, limit) for taker in takers]
        try:
            self._load(index, max(ends), checkpoint)
        except SALVAGEABLE_ERRORS as exc:
            # Strict integrity: the whole stream dies with the typed
            # error every rider would have hit scanning alone.
            self._failed = exc
            raise
        finally:
            reached = self._reached
            if reached > index:
                self._cursor = reached % total
                if reached == total:
                    # The circular pass wrapped back to segment 0.
                    flight.record(
                        "share.wrap",
                        table=self.table.schema.name,
                        riders=sum(end == total for end in ends),
                    )
                leasts = [min(end, reached) for end in ends]
                filtered = self._filter_together(index, takers, leasts, self._window)
                for consumer, least in zip(takers, leasts):
                    consumer._receive(index, least, self._window, filtered.get(consumer))
            if self._failed is not None:
                # It serves nothing more: its window goes now, not with
                # its last rider.
                self._window = None
            elif self._window is not None and self._window.units:
                # A row or PAX window's pages are views of the file, which
                # nothing may outlive: copied if a rider needs the cursor's
                # segment, else dropped with the window.
                window, cursor = self._window, self._cursor
                if window.first <= cursor < window.stop and any(
                    cursor in consumer._remaining for consumer in self._consumers
                ):
                    window.units = [(page, bytes(data)) for page, data in window.units]
                else:
                    self._window = None
        return reached - index

    #: The most mask bytes :meth:`_filter_together` holds at once.
    _MASK_BYTES = 1 << 20

    def _filter_together(self, index: int, takers: list, leasts: list[int], window: _Window) -> dict:
        """Filter in one pass per group the takers of a delivery from
        segment ``index`` that test one constant each
        (:attr:`SharedScanConsumer._together`): ``{rider: (block,
        totals)}``, what each member's own
        :meth:`~SharedScanConsumer._filter_run` would have made.

        A group shares an attribute, a comparison and a delivered run
        ``[index, stop)`` without lost rows: the run's values are
        compared once with the column of the group's constants, a mask
        row per member, and each member's qualifying rows are cut at the
        run's segment bounds for its tuples on segments with a hit.
        Every member's delivery — still its own ``_receive`` — then
        charges what it would have alone; everyone else filters alone,
        there.
        """
        groups: dict[tuple, list] = {}
        for taker, least in zip(takers, leasts):
            if taker._together is not None:
                groups.setdefault((*taker._together, least), []).append(taker)
        filtered = {}
        for (attr, op, stop), riders in groups.items():
            bounds = window.bounds[index - window.first : stop - window.first + 1]
            lo, hi = int(bounds[0]), int(bounds[-1])
            if len(riders) < 2 or not window.valid[lo:hi].all():
                continue
            counts = np.diff(bounds)
            columns = {name: window.column(name)[lo:hi] for name in self.attrs}
            # Run-relative: the k-th segment holds rows edges[k] to edges[k + 1].
            edges = bounds - lo
            # Every candidate is examined once: tuples, evaluations and
            # their operand bytes are the same for the whole group.
            examined = [hi - lo, hi - lo, (hi - lo) * riders[0]._bound[0][2]]
            per_pass = max(1, self._MASK_BYTES // (hi - lo))
            for at in range(0, len(riders), per_pass):
                chunk = riders[at : at + per_pass]
                constants = np.array(
                    [rider.predicates[0].value for rider in chunk], dtype=self._dtypes[attr]
                )
                masks = Predicate(attr, op, constants[:, None]).evaluate(columns[attr])
                rows = [np.flatnonzero(mask) for mask in masks]
                qualified = np.diff([np.searchsorted(hits, edges) for hits in rows], axis=1)
                on_hit = np.where(qualified > 0, counts, 0).sum(axis=1).tolist()
                for rider, hits, emitted, tuples in zip(
                    chunk, rows, qualified.sum(axis=1).tolist(), on_hit
                ):
                    block = rider._copy_out(columns, hits, window.lo + lo)
                    filtered[rider] = block, [*examined, emitted, tuples]
        return filtered

    # --- reading ----------------------------------------------------------

    def _load(self, index: int, stop: int, checkpoint) -> None:
        """Charge and pull what segments ``[index, stop)`` draw on.

        A segment's ``checkpoint()`` comes first, then the pages it
        newly draws on — a page it shares with the segment before it in
        the run was that one's — each charged to the stream by the rule
        in the class docstring *before* it is pulled.  ``_reached`` is
        left at the first segment not pulled: on an error the one it
        came from, a strict failure's page charged.
        """
        self._reached = index
        checkpoint()
        window = self._window_over(index)
        if window is None:
            window = self._window = self._open_window(index)
        lost = self._lost
        feeds = list(zip(self._sources, window.feeds))
        # A row or PAX file with no page lost: segment ``i`` is page ``i``.
        paged = not lost and feeds[0][0].fifo is None
        touched = 0
        try:
            for segment in range(index, stop):
                if segment > index:
                    checkpoint()
                if paged:
                    source, feed = feeds[0]
                    touched += 1
                    if feed.at < len(feed.pages) and feed.pages[feed.at] <= segment:
                        self._pull(window, source, feed, segment)
                    continue
                for source, feed in feeds:
                    fifo = source.fifo
                    name = source.name
                    unpulled = feed.pages
                    first = source.first[segment]
                    if segment > index and first == source.last[segment - 1]:
                        first += 1
                    for page in range(first, source.last[segment] + 1):
                        if lost and (name, page) in lost:
                            continue
                        buffered = fifo is not None and page in fifo
                        if not buffered:
                            touched += 1
                        if feed.at < len(unpulled) and unpulled[feed.at] <= page:
                            self._pull(window, source, feed, page)
                        if fifo is not None and not buffered and (name, page) not in lost:
                            while len(fifo) >= self._CACHE_PAGES:
                                del fifo[next(iter(fifo))]
                            fifo[page] = None
            segment = stop
        finally:
            self._reached = segment
            self.io_events.pages_touched += touched
            self.io_events.bytes_read += touched * self.table.page_size

    def _window_over(self, index: int) -> _Window | None:
        """The current window, if segment ``index`` is in it."""
        window = self._window
        if window is not None and window.first <= index < window.stop:
            return window
        return None

    def _open_window(self, index: int) -> _Window:
        """A window from segment ``index`` on; nothing is read yet."""
        stop = index + 1
        limit = min(self.num_segments, index + self._window_pages)
        needs = [consumer._remaining for consumer in self._consumers]
        while stop < limit:
            for remaining in needs:
                if stop in remaining:
                    break
            else:
                break  # nobody needs it: the window ends here
            stop += 1
        bounds = self._starts[index : stop + 1]
        lo = int(bounds[0])
        bounds = bounds - lo
        rows = int(bounds[-1])
        window = _Window(
            first=index,
            stop=stop,
            lo=lo,
            bounds=bounds,
            columns={},
            valid=np.ones(rows, dtype=bool),
            dtypes=self._dtypes,
        )
        window.feeds = [self._open_feed(window, source) for source in self._sources]
        return window

    def observe_decodes(self) -> None:
        """Observe the decodes this stream's reader has timed so far, for
        all its riders (:meth:`ExecutionContext.observe_decodes`)."""
        self._context.observe_decodes()

    def _open_feed(self, window: _Window, source: _Source) -> _Feed:
        pages = range(source.first[window.first], source.last[window.stop - 1] + 1)
        if self._lost:
            kept = []
            for page in pages:
                if (source.name, page) in self._lost:
                    self._invalidate(window, source, page)
                else:
                    kept.append(page)
            pages = kept
        pieces = guarded_units(
            self._context,
            self._window_pages,
            source.owner.file,
            pages,
            lambda at: source.span_of(pages[at]),
            source.decode,
        )
        return _Feed(pages, pieces)

    def _pull(self, window: _Window, source: _Source, feed: _Feed, page: int) -> None:
        """Pull ``feed``'s pieces into ``window`` until ``page`` is in."""
        pages = feed.pages
        while feed.at < len(pages) and pages[feed.at] <= page:
            at, run, decoded = next(feed.pieces)
            feed.at = at + run
            if decoded is None:
                fault = self._context.corruption.faults[-1]
                self._lost[(fault.file, fault.page)] = fault
                self._invalidate(window, source, pages[at])
                continue
            piece = pages[at : at + run]
            if source.fifo is None:
                # A row file's bytes; a page apiece if the piece skips a lost page.
                size = self.table.page_size
                cut = [(0, run)] if piece[-1] - piece[0] < run else [(k, k + 1) for k in range(run)]
                window.units += [(piece[lo], decoded[lo * size : hi * size]) for lo, hi in cut]
                continue
            parts = [(source.first_row(piece[0]), 0, None)]
            if piece[-1] - piece[0] >= run:
                # The piece spans a known-lost page it did not read: each
                # page's values go to its own rows.
                ends = np.cumsum([source.span_of(page) for page in piece]).tolist()
                parts = [
                    (source.first_row(page), lo, hi)
                    for page, lo, hi in zip(piece, [0, *ends], ends)
                ]
            for name, values in decoded.items():
                for first_row, lo, hi in parts:
                    part = values[lo:hi]
                    start, stop, skipped = window.rows_of(first_row, len(part))
                    if stop - start == len(part) == len(window.valid):
                        window.columns[name] = part  # the piece is the window: no copy
                    else:
                        window.column(name)[start:stop] = part[skipped : skipped + stop - start]
        if feed.at == len(pages):
            # Its reader is done, and goes with the last piece it read.
            feed.pieces = None

    @staticmethod
    def _invalidate(window: _Window, source: _Source, page: int) -> None:
        """A lost page: its nominal row span holds no candidates."""
        start, stop, _skipped = window.rows_of(source.first_row(page), source.span_of(page))
        window.valid[start:stop] = False


class SharedScanConsumer(Scanner):
    """One query's ride on a :class:`SharedScanStream`.

    A :class:`~repro.engine.operators.scan_core.Scanner` whose
    ``_receive`` is kernel + buffer: a delivery's segments are read
    once — a row or PAX rider's through :meth:`Scanner._read_step`, a
    column rider's alone, in one predicate pass and one copy
    (:meth:`Scanner._filter_pages`), or beside the riders of the
    delivery that compare the same attribute the same way
    (:meth:`SharedScanStream._filter_together`) — and their numbers
    (values examined, predicate and decode charges, projection counts,
    the pages they drew on) are charged as one sum, equal to what a
    segment-at-a-time rider is charged over the same segments.  A rider
    holds only rows of the segments it has been delivered.  Once its
    full circular pass completes it emits the deliveries' blocks
    re-assembled into global Record-ID order, split into engine-sized
    logical blocks.  Byte-identical to a cold serial scan of the same
    query.
    """

    #: Each rider pays to process the delivered values of every
    #: attribute it touches, whole, as if they arrived decoded.
    LAZY_WHOLE_PAGE_KINDS = tuple(CodecKind)

    def __init__(
        self,
        context: ExecutionContext,
        share: SharedScanStream,
        query: ScanQuery,
    ):
        # Set first: the scanner's set-up reads the stream's codec kinds.
        self.share = share
        super().__init__(context, share.table, query.select, query.predicates)
        self.query = query
        #: A delivery is pages (:meth:`_read_run`), or columns (:meth:`_filter_run`).
        self._paged = paged = isinstance(share.table, PagedTable)
        #: ``(attribute, comparison)`` of a column rider's one predicate
        #: when its constant is exactly a value of the attribute's dtype:
        #: the stream filters riders with the same pair together
        #: (:meth:`SharedScanStream._filter_together`).
        self._together = None
        if len(self.predicates) == 1 and not paged:
            predicate = self.predicates[0]
            if _exact(predicate.value, share._dtypes[predicate.attr]):
                self._together = (predicate.attr, predicate.op)
        #: Segment the stream was at when we attached (for EXPLAIN).
        self.attach_cursor = share.cursor
        self._remaining = share.attach(self)
        #: ``(first segment, block)`` per delivery with output.
        self._buffered: list[tuple[int, Block]] = []
        self._finalized = False
        #: Pages already copied into the corruption report, or — for a
        #: delivery counted without a lost page — only its first and last
        #: per file: the only ones a later delivery can draw on again.
        self._seen_pages: set[tuple[str, int]] = set()
        #: This rider's own typed error, raised at its next pump.
        self._error: Exception | None = None

    def describe(self) -> str:
        return (
            f"{super().describe()} | shared, attached@segment "
            f"{self.attach_cursor}/{self.share.num_segments}"
        )

    # --- stream side ------------------------------------------------------

    def _receive(self, index: int, stop: int, window: _Window, filtered) -> None:
        """Process one delivered run, segments ``[index, stop)`` (called
        by the stream): read it, unless the stream's group pass did
        (``filtered``, its ``(block, totals)``, else ``None``), and charge it.

        Deliveries run during *whoever pumps* — often a peer's
        timeslice — yet mutate this consumer's own ``context.events``.
        So the work is wrapped in a span window on this consumer's own
        tracer (billed to its ``next`` bucket): per-query span totals
        stay exactly equal to the per-query plan totals even when every
        segment arrived off peers' pumps.  Nesting is safe when the
        delivery happens inside this consumer's own traced ``next()``
        drain — both frames belong to the same span.
        """
        tracer = self.context.tracer
        if tracer is None:
            self._receive_inner(index, stop, window, filtered)
            return
        frame = tracer.enter(self, "receive")
        try:
            self._receive_inner(index, stop, window, filtered)
        finally:
            tracer.exit(frame, self.context.events)

    def _receive_inner(self, index: int, stop: int, window: _Window, filtered) -> None:
        self._remaining.difference_update(range(index, stop))
        if self._error is not None:
            return  # it failed at its first error, and reads nothing more
        # Copy what the stream's reads found into this query's report,
        # once per page (a column page may serve several segments).
        corruption = self.context.corruption
        seen = self._seen_pages
        if self.share._lost:
            for segment in range(index, stop):
                for key, fault in self.share._drawn(segment):
                    if key in seen:
                        continue
                    seen.add(key)
                    if fault is None:
                        corruption.pages_scanned += 1
                    else:
                        corruption.faults.append(fault)
        else:
            # Nothing lost: every page drawn on is scanned, and only the
            # delivery's end pages can have come in an earlier one.
            count, ends = self.share._pages_drawn(index, stop)
            corruption.pages_scanned += count - len(ends & seen)
            seen |= ends

        read = self._read_run if self._paged else self._filter_run
        try:
            block, totals = filtered or read(index, stop, window)
        except SALVAGEABLE_ERRORS as exc:
            # A strict read step's error is this rider's, not its stream's.
            self._error = exc
            return
        if len(block):
            self._buffered.append((index, block))
        count, evals, eval_bytes, qualified, on_hit = totals
        events = self.events
        events.values_examined += count
        events.predicate_evals += evals
        events.predicate_eval_bytes += eval_bytes
        self._charge_lazy_decodes(count, on_hit, qualified)
        self._charge_projection(qualified)

    def _read_run(self, index: int, stop: int, window: _Window) -> tuple[Block, list[int]]:
        """:meth:`_filter_run` of a row or PAX window: each run of adjacent pages of
        ``[index, stop)`` through :meth:`Scanner._read_step`; lost rows counted, not read."""
        table = self.table
        size, capacity = table.page_size, table.page_codec.tuples_per_page

        def read(data, page, _run, verify):
            return self._read_step(data, verify, page * capacity)

        pieces = []
        for first, data in window.units:
            lo, hi = max(index, first), min(stop, first + len(data) // size)
            if lo < hi:
                unit = memoryview(data)[(lo - first) * size : (hi - first) * size]
                try:
                    pieces.append(read(unit, lo, hi - lo, False))
                except SALVAGEABLE_ERRORS:
                    # Values that do not decode: a page at a time, under this
                    # query's integrity policy, as its serial scan reads them.
                    pages = guarded_pages(
                        self.context, table.file, range(hi), table.row_span_of_page, read, lo, unit
                    )
                    for _page, _run, piece in pages:
                        if piece is None:
                            self.context.corruption.pages_scanned -= 1
                        else:
                            pieces.append(piece)
        count = int(window.bounds[stop - window.first] - window.bounds[index - window.first])
        if not pieces:
            return self._empty_block(), [count, 0, 0, 0, 0]
        numbers = np.concatenate([numbers for numbers, _block in pieces], axis=1)
        _count, _candidates, evals, eval_bytes, qualified, _offsets = numbers.sum(axis=1).tolist()
        on_hit = int(numbers[0, numbers[4] > 0].sum())
        block = concat_blocks([block for _numbers, block in pieces])
        return block, [count, evals, eval_bytes, qualified, on_hit]

    def _filter_run(self, index: int, stop: int, window: _Window) -> tuple[Block, list[int]]:
        """Filter and project the delivered segments ``[index, stop)`` in
        one :meth:`Scanner._filter_pages` pass: ``(block, totals)``, the
        tuples, predicate evaluations, their operand bytes, qualifying
        tuples and tuples on segments with one (a whole-page codec's
        charge for a selected attribute) that the delivery charges."""
        bounds = window.bounds[index - window.first : stop - window.first + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        columns = {name: window.column(name)[lo:hi] for name in self._attrs}
        mask = window.valid[lo:hi].copy()
        numbers = self._filter_pages(np.diff(bounds), columns, mask)
        block = self._copy_out(columns, np.flatnonzero(mask), window.lo + lo)
        count, _candidates, evals, eval_bytes, qualified, _offsets = numbers.sum(axis=1).tolist()
        on_hit = int(numbers[0, numbers[4] > 0].sum())
        return block, [count, evals, eval_bytes, qualified, on_hit]

    # --- operator side ----------------------------------------------------

    def _open(self) -> None:
        """The ride began at attach: opening resets nothing, so a rider
        pumped to the end before it is drained keeps its blocks."""

    def advance(self, want: int = 1) -> bool:
        """One cooperative timeslice: pump the stream one run, of at
        most ``want`` segments (the scheduler asks for a window).

        One governance checkpoint per segment pumped, passed before the
        segment is charged to anyone.  Returns True while more pumping
        is needed for *this* consumer; once its pass is complete the
        output is finalized and False is returned (drain the blocks with
        ``next()``).  Deliveries made while a *peer* pumps shrink
        ``_remaining`` too, so a consumer may finish without ever
        pumping itself.
        """
        if self._finalized:
            return False
        if self.share.failed is not None:
            raise self.share.failed
        if not self._remaining:
            self._governance_check()
        elif self._error is None and not self.share.step(
            min(want, len(self._remaining)), self._governance_check
        ):
            raise EngineError(
                "shared scan stream stalled with segments outstanding"
            )
        if self._error is not None:
            raise self._error
        if self._remaining:
            return True
        self._finalize()
        return False

    def _finalize(self) -> None:
        self._finalized = True
        self.share.detach(self)
        self._buffered.sort(key=lambda pair: pair[0])
        merged = concat_blocks([block for _index, block in self._buffered])
        self._buffered = []
        self._held = as_batch(
            merged if len(merged) else self._empty_block(), self.context.block_size
        )

    def _next(self, want: int | None) -> Block | None:
        while not self._finalized:
            self.advance(self.share.window_segments)
        return self._pop(want)

    def _close(self) -> None:
        self.share.detach(self)


class ScanShareManager:
    """The attach point: route each query to the live stream of its key.

    Streams are keyed by :func:`share_key`, one live stream per key.  A
    query attaches mid-flight to its key's (share *hit*), or opens it
    (share *miss*).  A rider need not be running to attach: the
    scheduler boards a query still waiting for admission onto its key's
    live stream (:meth:`live_stream`), and it receives its segments off
    its peers' pumps while it waits.  A stream is dropped when its last
    rider — running or queued — detaches, or when a query of its key
    finds it failed: its I/O totals are folded into the manager's
    counters and ``repro_scheduler_shared_pages_total``, once, and
    nothing of it stays reachable from here.
    """

    def __init__(self) -> None:
        #: The stream of each share key with riders attached.
        self._streams: dict[tuple, SharedScanStream] = {}
        #: I/O of the streams dropped so far.
        self._retired_io = CostEvents()
        self.hits = 0
        self.misses = 0

    def acquire(
        self,
        table: Table,
        query: ScanQuery,
        context: ExecutionContext,
        key: tuple | None = None,
        queued: bool = False,
    ) -> SharedScanConsumer:
        """A consumer for ``query``, on its key's live stream or a fresh one.

        ``key`` is the query's :func:`share_key` when the caller has it
        already; ``queued`` marks a rider that boards while it waits for
        admission (the ``share.attach`` event says so).  A fresh stream
        reads by the prefetch window of ``context``'s calibration.
        """
        if key is None:
            key = share_key(table, query, context.strict_integrity)
        stream = self._streams.get(key)
        if stream is not None and stream.failed is not None:
            # Its riders are on their way out; it charges nothing more.
            self._retire(key, stream)
            stream = None
        hit = stream is not None
        if not hit:
            stream = SharedScanStream(
                table,
                query.scan_attributes(),
                context.strict_integrity,
                context.calibration,
                on_empty=functools.partial(self._retire, key),
            )
        consumer = SharedScanConsumer(context, stream, query)
        if hit:
            self.hits += 1
        else:
            # Listed once it has a rider: a stream here always has one.
            self._streams[key] = stream
            self.misses += 1
        flight.record(
            "share.attach",
            context.label,
            table=table.schema.name,
            cursor=consumer.attach_cursor,
            segments=stream.num_segments,
            riders=len(stream.consumers),
            attrs=len(consumer._attrs),
            hit=int(hit),
            miss=int(not hit),
            hit_ratio=self.hits / (self.hits + self.misses),
            queued=int(queued),
        )
        return consumer

    def live_stream(self, key: tuple) -> SharedScanStream | None:
        """The live, healthy stream a query with share key ``key`` would join."""
        stream = self._streams.get(key)
        return stream if stream is not None and stream.failed is None else None

    def _retire(self, key: tuple, stream: SharedScanStream) -> None:
        """Drop ``stream`` (no riders left, or failed), keeping its totals."""
        if self._streams.get(key) is stream:
            del self._streams[key]
            self._retired_io.merge(stream.io_events)
            obs_metrics.SCHEDULER_SHARED_PAGES.inc(stream.io_events.pages_touched)

    def discard(self, consumer: SharedScanConsumer) -> None:
        """Detach a failed/cancelled rider without touching its peers."""
        consumer.share.detach(consumer)

    def live_streams(self) -> list[SharedScanStream]:
        """Streams that still have riders attached."""
        return list(self._streams.values())

    def board(self) -> list[dict]:
        """Live-stream summaries for the scheduler dashboard."""
        return [
            {
                "table": stream.table.schema.name,
                "cursor": stream.cursor,
                "segments": stream.num_segments,
                "riders": [
                    consumer.context.label or "?"
                    for consumer in stream.consumers
                ],
            }
            for stream in self.live_streams()
        ]

    def io_bytes(self) -> int:
        """Bytes read by every stream ever created, each counted once."""
        return self._retired_io.bytes_read + sum(
            stream.io_events.bytes_read for stream in self.live_streams()
        )

    def io_pages(self) -> int:
        return self._retired_io.pages_touched + sum(
            stream.io_events.pages_touched for stream in self.live_streams()
        )

    def stats(self) -> dict:
        return {
            "share_hits": self.hits,
            "share_misses": self.misses,
            "shared_io_bytes": self.io_bytes(),
            "shared_io_pages": self.io_pages(),
        }
