"""Shared scans: many queries riding one circular table scan.

Section 2.1.1 of the paper notes that concurrent queries over the same
table can be served off a *single* reading stream (Teradata, RedBrick,
QPipe); Figure 11 measures the competing-scans regime this avoids.  The
engine-side implementation lives here:

* :class:`SharedScanStream` — one circular pass over a table's needed
  column set.  A *segment* (one driving page's worth of rows) is its
  unit of accounting: pages are charged, checkpoints passed and faults
  recorded segment by segment.  A *run* (adjacent segments, as many as
  the caller asks for, within one window) is its unit of delivery:
  whoever pumps the stream drives it a run at a time, and every attached
  consumer receives the part of the run it still needs.  A *window* (an
  I/O unit of adjacent segments) is its unit of reading: each file under
  a window is read, CRC-checked and decoded through the scan core's one
  unit reader, a healthy unit per numpy call.  The stream's I/O (pages
  touched, bytes read) is accounted **once**, per logical page as each
  segment is delivered, on the stream's own
  :class:`~repro.cpusim.events.CostEvents`, mirroring the iosim
  shared-stream model (:mod:`repro.iosim.sharing`), while decode and
  predicate CPU is charged **per consumer** — each query still pays to
  process the delivered values.
* :class:`SharedScanConsumer` — a :class:`~repro.engine.operators.
  scan_core.Scanner` view of one query's ride on the stream.  A consumer
  attaches *mid-flight* at the stream's current position, rides to the
  end, wraps around for the prefix it missed (circular scan), and
  detaches after exactly one full pass.  It filters and projects a
  window's segments in one pass and is charged for them one delivery —
  one run, the sum of its segments' numbers — at a time.  Output is
  re-assembled into global Record-ID order before emission, so the
  result is byte-identical to a cold serial scan.
* :class:`ScanShareManager` — the attach point: queries over the same
  table, column set, and integrity mode join the in-progress stream;
  everything else gets a fresh one.  A stream is dropped with its last
  rider; its I/O totals stay.

Salvage mode drops the union of corrupt-page row spans across the
needed columns — exactly the rows a serial salvage scan would lose —
and records the damage per consumer.  Under strict integrity a decode
error fails the whole stream with the same typed error every rider
would have hit scanning alone.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.calibration import DEFAULT_CALIBRATION, Calibration
from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, as_batch, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan_core import (
    SALVAGEABLE_ERRORS,
    Scanner,
    guarded_units,
    unit_pages,
)
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
    """The attach-compatibility key: same table, column set, integrity."""
    return (id(table), frozenset(query.scan_attributes()), strict_integrity)


@dataclass(slots=True)
class _Source:
    """One file under a stream: how it reads, and what segments draw on it."""

    #: The file's name, and the table or column file that has it:
    #: ``owner.file`` is looked up when a window opens (a fault plan
    #: wraps it in place).
    name: str
    owner: object
    #: ``decode(data, at, run) -> {attribute: values}`` of ``run``
    #: adjacent pages: the unit reader's callback.
    decode: Callable
    first_row: Callable[[int], int]
    span_of: Callable[[int], int]
    #: Segment ``i`` draws on pages ``first[i]`` to ``last[i]``.
    first: list[int]
    last: list[int]
    #: The modeled buffer of a column file — the ids of the last pages
    #: charged for it, oldest first; ``None`` for a row file (it has none).
    fifo: dict[int, None] | None


@dataclass(slots=True)
class _Feed:
    """One source's share of a window: its pages, pulled a piece at a time."""

    #: Ascending page ids the window reads (known-lost pages left out).
    pages: list[int]
    #: The unit reader over them; lazy, so a page's error is raised by
    #: the delivery that first draws on it.
    pieces: Iterator
    #: ``pages[:at]`` have been pulled into the window.
    at: int = 0


@dataclass(slots=True)
class _Window:
    """The decoded run of segments a stream is serving: the real buffer."""

    #: Which of its stream's windows this is (a rider remembers the
    #: number, not the window).
    serial: int
    #: Segments ``[first, stop)``; those before ``ready`` are settled:
    #: every page they draw on has been pulled.
    first: int
    stop: int
    ready: int
    #: The ``k``-th segment holds rows ``lo + bounds[k]`` to ``lo + bounds[k + 1]``.
    lo: int
    bounds: np.ndarray
    #: Full width: zero where invalid or not yet pulled.
    columns: dict[str, np.ndarray]
    #: False where a lost page's span fell.
    valid: np.ndarray
    feeds: list[_Feed] = field(default_factory=list)

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


class SharedScanStream:
    """One circular scan over ``attrs`` of ``table``, shared by consumers.

    A *segment* is the unit of accounting, a *run* the unit of delivery,
    a *window* the unit of reading.  Segments are the driving file's
    pages: the row file's pages (row and PAX layouts) or the pages of
    the column file with the *most* pages (column layout — its pages
    bound the finest row spans, and every other needed column is swept
    alongside it).  A window is the run of adjacent segments some rider
    still needs, at most an I/O unit of driving pages
    (``calibration.io_unit_bytes``) and never across the wrap: each file
    under it is read, CRC-checked and decoded through the scan core's
    unit reader — a healthy unit in one call, a unit with a corrupt
    page, a short read or RLE pages page by page from the bytes already
    read, as each segment is reached.  ``step(want)`` cuts a run of up
    to ``want`` segments from it per call — ``step()`` one, the
    scheduler's timeslice the rest of the window — and what a run
    charges, to the stream and to each rider, is the sum of what its
    segments charge one at a time, whatever the run length.

    The modeled I/O is charged at delivery, per logical page: a row page
    per delivery; a column page unless it is among the last
    ``_CACHE_PAGES`` charged for its file (the modeled buffer, which
    outlives an idle stream) or already lost.  The window is the real
    buffer and belongs to the riders: a stream without riders holds no
    decoded data.
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
        #: Driving pages per window: the creating context's I/O unit.
        self._unit_pages = unit_pages(calibration, table.page_size)
        #: Called with the stream when its last rider detaches.
        self._on_empty = on_empty
        self._consumers: list[SharedScanConsumer] = []
        self._cursor = 0
        self._failed: Exception | None = None
        self._window: _Window | None = None
        self._windows_opened = 0
        #: ``(file name, page) -> PageFault`` of every page salvage lost:
        #: such a page is never read (or charged) again.
        self._lost: dict[tuple[str, int], object] = {}
        # ``_segments``: (driving page id, row lo, row hi), in row order.
        if isinstance(table, PagedTable):
            self._segments = self._paged_segments()
            self._sources = [self._paged_source()]
        elif isinstance(table, ColumnTable):
            self._segments = self._column_segments()
            self._sources = [self._column_source(name) for name in self.attrs]
        else:
            raise PlanError(
                f"unsupported table type for sharing: {type(table).__name__}"
            )
        #: Segment ``i`` holds rows ``_starts[i]`` to ``_starts[i + 1]``.
        self._starts = np.array(
            [lo for _page, lo, _hi in self._segments] + [hi for _page, _lo, hi in self._segments[-1:]],
            dtype=np.int64,
        )
        schema = table.schema
        self._dtypes = {
            name: schema.attribute(name).attr_type.numpy_dtype() for name in self.attrs
        }

    # --- geometry ---------------------------------------------------------

    def _paged_segments(self) -> list[tuple[int, int, int]]:
        """Row/PAX: one segment per page of the one file."""
        table = self.table
        segments = []
        base = 0
        for page_id in range(table.file.num_pages):
            span = table.row_span_of_page(page_id)
            if span > 0:
                segments.append((page_id, base, base + span))
            base += span
        return segments

    def _column_segments(self) -> list[tuple[int, int, int]]:
        """Column layout: one segment per page of the driving column."""
        table = self.table
        driver = self._driving_column()
        if driver is None:
            return []
        column_file = table.column_file(driver)
        segments = []
        for page_id in range(column_file.file.num_pages):
            lo = column_file.first_row_of_page(page_id)
            span = column_file.row_span_of_page(page_id, table.num_rows)
            if span > 0:
                segments.append((page_id, lo, lo + span))
        return segments

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
        """Row/PAX: every attribute off the one file, a page per segment."""
        table, attrs = self.table, self.attrs
        capacity = table.page_codec.tuples_per_page
        pages = [page_id for page_id, _lo, _hi in self._segments]

        def decode(data, _at, run):
            decoder = table.decode_unit if run > 1 else table.decode_page
            return decoder(data, attrs)[1]

        return _Source(
            name=table.file.name,
            owner=table,
            decode=decode,
            first_row=lambda page: page * capacity,
            span_of=table.row_span_of_page,
            first=pages,
            last=pages,
            fifo=None,
        )

    def _column_source(self, name: str) -> _Source:
        """Column layout: one attribute's file, the pages covering each segment's rows."""
        num_rows = self.table.num_rows
        column_file = self.table.column_file(name)
        rows = np.array([(lo, hi - 1) for _page, lo, hi in self._segments], dtype=np.int64)
        first, last = column_file.page_of_positions(rows.reshape(-1, 2).T).tolist()
        return _Source(
            name=column_file.file.name,
            owner=column_file,
            decode=lambda data, _at, _run: {name: column_file.decode_unit(data)[1]},
            first_row=column_file.first_row_of_page,
            span_of=lambda page: column_file.row_span_of_page(page, num_rows),
            first=first,
            last=last,
            fifo={},
        )

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def window_segments(self) -> int:
        """The most segments one window, and so one run, can hold."""
        return self._unit_pages

    @property
    def cursor(self) -> int:
        """The segment index the stream will serve next."""
        return self._cursor

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
        return set(range(len(self._segments)))

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
        total = len(self._segments)
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
        # A window opened from here would end an I/O unit on, at most.
        limit = window.stop if window is not None else min(total, index + self._unit_pages)
        limit = min(limit, index + want)
        # Where each taker's need of adjacent segments ends.
        ends = [_needed_until(taker._remaining, index + 1, limit) for taker in takers]
        pages: list[list[tuple]] = []
        try:
            self._load(index, max(ends), checkpoint, pages)
        except SALVAGEABLE_ERRORS as exc:
            # Strict integrity: the whole stream dies with the typed
            # error every rider would have hit scanning alone.
            self._failed = exc
            raise
        finally:
            reached = index + len(pages)
            if reached > index:
                self._cursor = reached % total
                if reached == total:
                    # The circular pass wrapped back to segment 0.
                    flight.record(
                        "share.wrap",
                        table=self.table.schema.name,
                        riders=sum(end == total for end in ends),
                    )
                for consumer, end in zip(takers, ends):
                    consumer._receive(index, min(end, reached), self._window, pages)
        return reached - index

    # --- reading ----------------------------------------------------------

    def _load(self, index: int, stop: int, checkpoint, pages: list[list[tuple]]) -> None:
        """Charge and settle what segments ``[index, stop)`` draw on.

        Appends to ``pages``, per segment settled, its ``((file name,
        page id), fault)`` per page drawn on; ``fault`` is ``None`` for
        a decoded page, else the stream's :class:`~repro.storage.scrub.
        PageFault` for it.  A segment's ``checkpoint()`` comes first,
        and a page is charged to the stream by the rule in the class
        docstring *before* it is pulled: an error leaves ``pages`` at
        the segments before the one it came from, and a strict failure
        its page charged.
        """
        checkpoint()
        window = self._window_over(index)
        if window is None:
            window = self._window = self._open_window(index)
        lost = self._lost
        feeds = list(zip(self._sources, window.feeds))
        touched = 0
        try:
            for segment in range(index, stop):
                if segment > index:
                    checkpoint()
                drawn = []
                for source, feed in feeds:
                    fifo = source.fifo
                    name = source.name
                    unpulled = feed.pages
                    for page in range(source.first[segment], source.last[segment] + 1):
                        key = (name, page)
                        if key not in lost:
                            buffered = fifo is not None and page in fifo
                            if not buffered:
                                touched += 1
                            if feed.at < len(unpulled) and unpulled[feed.at] <= page:
                                self._pull(window, source, feed, page)
                            if fifo is not None and not buffered and key not in lost:
                                while len(fifo) >= self._CACHE_PAGES:
                                    del fifo[next(iter(fifo))]
                                fifo[page] = None
                        drawn.append((key, lost.get(key)))
                pages.append(drawn)
        finally:
            self.io_events.pages_touched += touched
            self.io_events.bytes_read += touched * self.table.page_size
            obs_metrics.SCHEDULER_SHARED_PAGES.inc(touched)
            ready = window.stop
            for source, feed in feeds:
                if feed.at < len(feed.pages):
                    # Settled: the segments wholly before the next unpulled page.
                    ready = bisect_left(source.last, feed.pages[feed.at], window.first, ready)
            window.ready = ready

    def _window_over(self, index: int) -> _Window | None:
        """The current window, if segment ``index`` is in it."""
        window = self._window
        if window is not None and window.first <= index < window.stop:
            return window
        return None

    def _open_window(self, index: int) -> _Window:
        """A window from segment ``index`` on; nothing is read yet."""
        stop = index + 1
        limit = min(len(self._segments), index + self._unit_pages)
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
        columns = {name: np.zeros(rows, dtype=dtype) for name, dtype in self._dtypes.items()}
        self._windows_opened += 1
        window = _Window(
            serial=self._windows_opened,
            first=index,
            stop=stop,
            ready=index,
            lo=lo,
            bounds=bounds,
            columns=columns,
            valid=np.ones(rows, dtype=bool),
        )
        window.feeds = [self._open_feed(window, source) for source in self._sources]
        return window

    def _open_feed(self, window: _Window, source: _Source) -> _Feed:
        pages = []
        for page in range(source.first[window.first], source.last[window.stop - 1] + 1):
            if (source.name, page) in self._lost:
                self._invalidate(window, source, page)
            else:
                pages.append(page)
        pieces = guarded_units(
            self._context,
            self._unit_pages,
            source.owner.file,
            pages,
            lambda at: source.span_of(pages[at]),
            source.decode,
            _no_checkpoint,
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
            first_row = source.first_row(pages[at])
            for name, values in decoded.items():
                start, stop, skipped = window.rows_of(first_row, len(values))
                if stop - start == len(values) == len(window.valid):
                    window.columns[name] = values  # the piece is the window: no copy
                else:
                    window.columns[name][start:stop] = values[skipped : skipped + stop - start]

    @staticmethod
    def _invalidate(window: _Window, source: _Source, page: int) -> None:
        """A lost page: its nominal row span holds no candidates."""
        start, stop, _skipped = window.rows_of(source.first_row(page), source.span_of(page))
        window.valid[start:stop] = False


class SharedScanConsumer(Scanner):
    """One query's ride on a :class:`SharedScanStream`.

    A :class:`~repro.engine.operators.scan_core.Scanner` whose
    ``_receive`` is kernel + buffer: on the first delivery it sees from
    a window it filters and projects, in one predicate pass and one
    copy (:meth:`Scanner._filter_pages`), the segments delivered and the
    settled ones it still needs after them; each delivery then
    *releases* its run's numbers — values examined, predicate and decode
    charges, projection counts, the pages it drew on — as one sum, equal
    to what a segment-at-a-time rider is charged over the same
    segments.  Once its full circular pass completes it emits the runs'
    blocks re-assembled into global Record-ID order, split into
    engine-sized logical blocks.  Byte-identical to a cold serial scan of
    the same query.
    """

    #: Segments arrive fully decoded, and each rider pays to process the
    #: delivered values of every attribute it touches, whole.
    LAZY_WHOLE_PAGE_KINDS = tuple(CodecKind)

    def __init__(
        self,
        context: ExecutionContext,
        share: SharedScanStream,
        query: ScanQuery,
    ):
        super().__init__(context, share.table, query.select, query.predicates)
        missing = set(query.scan_attributes()) - set(share.attrs)
        if missing:
            raise PlanError(
                f"shared stream lacks attributes {sorted(missing)} "
                f"(carries {sorted(share.attrs)})"
            )
        self.share = share
        self.query = query
        #: Segment the stream was at when we attached (for EXPLAIN).
        self.attach_cursor = share.cursor
        self._remaining = share.attach(self)
        #: ``(first segment, block)`` per filtered run with output.
        self._buffered: list[tuple[int, Block]] = []
        #: The filtered run being released: ``(window serial, first
        #: segment, stop, running totals of its segments' numbers)``.
        #: Holds no window data.
        self._prepared: tuple | None = None
        self._finalized = False
        self._seen_pages: set[tuple[str, int]] = set()

    def describe(self) -> str:
        return (
            f"{super().describe()} | shared, attached@segment "
            f"{self.attach_cursor}/{self.share.num_segments}"
        )

    # --- stream side ------------------------------------------------------

    def _receive(self, index: int, stop: int, window: _Window, pages: list[list[tuple]]) -> None:
        """Process one delivered run, segments ``[index, stop)`` (called
        by the stream); ``pages[k]`` is what segment ``index + k`` drew on.

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
            self._receive_inner(index, stop, window, pages)
            return
        frame = tracer.enter(self, "receive")
        try:
            self._receive_inner(index, stop, window, pages)
        finally:
            tracer.exit(frame, self.context.events)

    def _receive_inner(
        self, index: int, stop: int, window: _Window, pages: list[list[tuple]]
    ) -> None:
        self._remaining.difference_update(range(index, stop))
        # Copy what the stream's reads found into this query's report,
        # once per page (a column page may serve several segments).
        corruption = self.context.corruption
        seen = self._seen_pages
        for drawn in pages[: stop - index]:
            for key, fault in drawn:
                if key in seen:
                    continue
                seen.add(key)
                if fault is None:
                    corruption.pages_scanned += 1
                else:
                    obs_metrics.PAGES_SALVAGED.inc()
                    corruption.faults.append(fault)

        events = self.events
        while index < stop:
            prepared = self._prepared
            if (
                prepared is None
                or prepared[0] != window.serial
                or not prepared[1] <= index < prepared[2]
            ):
                prepared = self._prepare(index, stop, window)
            _serial, first, last, sums = prepared
            upto = min(stop, last)
            count, evals, eval_bytes, qualified, on_hit_segments = (
                total[upto - first] - total[index - first] for total in sums
            )
            events.values_examined += count
            events.predicate_evals += evals
            events.predicate_eval_bytes += eval_bytes
            self._charge_lazy_decodes(count, on_hit_segments, qualified)
            self._charge_projection(qualified)
            self._prepared = prepared if upto < last else None
            index = upto

    def _prepare(self, index: int, least: int, window: _Window) -> tuple:
        """Filter and project segments ``[index, least)`` and the
        settled ones still needed after them; nothing is charged before
        its release.  A release charges differences of the running
        totals kept here, one row per quantity."""
        stop = _needed_until(self._remaining, least, window.ready)
        bounds = window.bounds[index - window.first : stop - window.first + 1]
        lo, hi = int(bounds[0]), int(bounds[-1])
        numbers, block = self._filter_pages(
            np.diff(bounds),
            {name: window.columns[name][lo:hi] for name in self._attrs},
            window.valid[lo:hi].copy(),
            window.lo + lo,
        )
        if len(block):
            self._buffered.append((index, block))
        counts, _candidates, evals, eval_bytes, qualified, _offsets = numbers.tolist()
        # Tuples on the segments with a qualifying tuple: what a codec
        # that decodes whole pages is charged for a selected attribute.
        on_hit = [count if hits else 0 for count, hits in zip(counts, qualified)]
        sums = [
            list(accumulate(row, initial=0))
            for row in (counts, evals, eval_bytes, qualified, on_hit)
        ]
        return window.serial, index, stop, sums

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
        elif not self.share.step(min(want, len(self._remaining)), self._governance_check):
            raise EngineError(
                "shared scan stream stalled with segments outstanding"
            )
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
    """The attach point: route each query to a live compatible stream.

    Streams are keyed by (table identity, needed column set, integrity
    mode); a query matching a stream that still has riders attaches to
    it mid-flight (share *hit*), anything else starts a fresh stream
    (share *miss*).  A stream is dropped when its last rider detaches —
    its I/O totals are folded into the manager's counters for
    workload-level accounting, and nothing of it stays reachable from
    here.
    """

    def __init__(self) -> None:
        #: Streams with riders attached, by share key.
        self._streams: dict[tuple, SharedScanStream] = {}
        #: I/O of the streams dropped so far.
        self._retired_io = CostEvents()
        self.hits = 0
        self.misses = 0

    def acquire(
        self, table: Table, query: ScanQuery, context: ExecutionContext
    ) -> SharedScanConsumer:
        """A consumer for ``query``, shared with compatible live scans.

        A fresh stream reads by the I/O unit of ``context``'s calibration.
        """
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
            hit=int(hit),
            miss=int(not hit),
            hit_ratio=self.hits / (self.hits + self.misses),
        )
        return consumer

    def _retire(self, key: tuple, stream: SharedScanStream) -> None:
        """Drop ``stream`` (no riders left, or failed), keeping its totals."""
        if self._streams.get(key) is stream:
            del self._streams[key]
            self._retired_io.merge(stream.io_events)

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
            stream.io_events.bytes_read for stream in self._streams.values()
        )

    def io_pages(self) -> int:
        return self._retired_io.pages_touched + sum(
            stream.io_events.pages_touched for stream in self._streams.values()
        )

    def stats(self) -> dict:
        return {
            "share_hits": self.hits,
            "share_misses": self.misses,
            "shared_io_bytes": self.io_bytes(),
            "shared_io_pages": self.io_pages(),
        }
