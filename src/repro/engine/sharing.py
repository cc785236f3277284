"""Shared scans: many queries riding one circular table scan.

Section 2.1.1 of the paper notes that concurrent queries over the same
table can be served off a *single* reading stream (Teradata, RedBrick,
QPipe); Figure 11 measures the competing-scans regime this avoids.  The
engine-side implementation lives here:

* :class:`SharedScanStream` — one circular pass over a table's needed
  column set, advanced a *segment* (one driving page's worth of rows)
  at a time.  Whoever pumps the stream drives it; every attached
  consumer receives each decoded segment.  The stream's I/O (pages
  touched, bytes read) is accounted **once** on the stream's own
  :class:`~repro.cpusim.events.CostEvents`, mirroring the iosim
  shared-stream model (:mod:`repro.iosim.sharing`), while decode and
  predicate CPU is charged **per consumer** — each query still pays to
  process the delivered values.
* :class:`SharedScanConsumer` — a :class:`~repro.engine.operators.
  scan_core.Scanner` view of one query's ride on the stream.  A consumer
  attaches *mid-flight* at the stream's current position, rides to the
  end, wraps around for the prefix it missed (circular scan), and
  detaches after exactly one full pass.  Output is re-assembled into
  global Record-ID order before emission, so the result is
  byte-identical to a cold serial scan.
* :class:`ScanShareManager` — the attach point: queries over the same
  table, column set, and integrity mode join the in-progress stream;
  everything else gets a fresh one.

Salvage mode drops the union of corrupt-page row spans across the
needed columns — exactly the rows a serial salvage scan would lose —
and records the damage per consumer.  Under strict integrity a decode
error fails the whole stream with the same typed error every rider
would have hit scanning alone.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.scan_core import (
    SALVAGEABLE_ERRORS,
    Scanner,
    apply_predicates,
    guarded_decode,
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


class _SegmentData:
    """One decoded segment: full-width values plus a validity mask."""

    __slots__ = ("lo", "hi", "columns", "valid", "pages")

    def __init__(self, lo, hi, columns, valid, pages):
        self.lo = lo
        self.hi = hi
        #: attr name -> values for rows [lo, hi) (zero-filled where invalid).
        self.columns = columns
        #: Boolean mask over [lo, hi): False where a corrupt page's span fell.
        self.valid = valid
        #: ``(file_name, page_id, fault)`` per page the segment draws on;
        #: ``fault`` is ``None`` for a decoded page, else the stream's
        #: :class:`~repro.storage.scrub.PageFault` for it.
        self.pages = pages


class SharedScanStream:
    """One circular scan over ``attrs`` of ``table``, shared by consumers.

    Segments are the driving file's pages: the row file's pages (row
    and PAX layouts) or the pages of the column file with the *most*
    pages (column layout — its pages bound the finest row spans, so
    every other needed column is swept sequentially alongside it
    through a small rolling page cache and each page still decodes once
    per pass).
    """

    #: Rolling decoded-page cache entries kept per column file.
    _CACHE_PAGES = 4

    def __init__(self, table: Table, attrs: tuple[str, ...], strict_integrity: bool):
        self.table = table
        self.attrs = tuple(attrs)
        self.strict_integrity = strict_integrity
        #: I/O accounted once for the whole stream, not per consumer.
        self.io_events = CostEvents()
        #: The stream reads under the same integrity policy as any scan,
        #: on a context of its own: its accounting is ``io_events``, and
        #: its corruption report is what every rider copies damage from.
        self._context = ExecutionContext(
            strict_integrity=strict_integrity, events=self.io_events
        )
        self._consumers: list[SharedScanConsumer] = []
        self._cursor = 0
        self._failed: Exception | None = None
        #: Per-column rolling cache of decoded pages (column layout).
        self._page_cache: dict[str, dict[int, np.ndarray]] = {}
        # ``_segments``: (driving page id, row lo, row hi), in row order.
        if isinstance(table, PagedTable):
            attrs = self.attrs
            self._decode_page = lambda page: table.decode_page(page, attrs)
            self._segments = self._paged_segments()
            self._decode_segment = self._decode_paged_segment
        elif isinstance(table, ColumnTable):
            self._segments = self._column_segments()
            self._decode_segment = self._decode_column_segment
        else:
            raise PlanError(
                f"unsupported table type for sharing: {type(table).__name__}"
            )

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

    @property
    def num_segments(self) -> int:
        return len(self._segments)

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
                consumer._flight_label(),
                table=self.table.schema.name,
                riders=len(self._consumers),
            )

    @property
    def idle(self) -> bool:
        """True when no attached consumer still needs a segment."""
        return not any(c._remaining for c in self._consumers)

    # --- the circular pump ------------------------------------------------

    def step(self) -> bool:
        """Decode and deliver the next needed segment (circularly).

        Returns False when no attached consumer needs anything.  Raises
        the stream's terminal error (strict-integrity decode failure)
        to whoever pumps after it tripped.
        """
        if self._failed is not None:
            raise self._failed
        total = len(self._segments)
        if total == 0 or self.idle:
            return False
        for offset in range(total):
            index = (self._cursor + offset) % total
            takers = [c for c in self._consumers if index in c._remaining]
            if not takers:
                continue
            try:
                data = self._decode_segment(*self._segments[index])
            except SALVAGEABLE_ERRORS as exc:
                # Strict integrity: the whole stream dies with the typed
                # error every rider would have hit scanning alone.
                self._failed = exc
                raise
            self._cursor = (index + 1) % total
            if index + 1 == total:
                # The circular pass wrapped back to segment 0.
                flight.record(
                    "share.wrap",
                    table=self.table.schema.name,
                    riders=len(takers),
                )
            for consumer in takers:
                consumer._receive(index, data)
            return True
        return False

    # --- decoding ---------------------------------------------------------

    def _read(self, decode, file, page_id: int, row_span: int):
        """One page through the guarded read: ``(decoded, fault)``.

        The I/O is charged to the stream exactly once per page per pass;
        a page salvage had to drop stays in the stream's corruption
        report, so re-deliveries get ``(None, fault)`` without a re-read.
        """
        faults = self._context.corruption.faults
        for fault in faults:
            if fault.page == page_id and fault.file == file.name:
                return None, fault
        self.io_events.pages_touched += 1
        self.io_events.bytes_read += self.table.page_size
        obs_metrics.SCHEDULER_SHARED_PAGES.inc()
        decoded = guarded_decode(self._context, decode, file, page_id, row_span)
        return decoded, (faults[-1] if decoded is None else None)

    def _decode_paged_segment(self, page_id: int, lo: int, hi: int):
        """Row/PAX: one segment is exactly one page of the row file."""
        table = self.table
        span = hi - lo
        decoded, fault = self._read(self._decode_page, table.file, page_id, span)
        if decoded is None:
            schema = table.schema
            columns = {
                name: np.zeros(
                    span, dtype=schema.attribute(name).attr_type.numpy_dtype()
                )
                for name in self.attrs
            }
            valid = np.zeros(span, dtype=bool)
        else:
            columns = {name: decoded[1][name][:span] for name in self.attrs}
            valid = np.ones(span, dtype=bool)
        return _SegmentData(lo, hi, columns, valid, [(table.file.name, page_id, fault)])

    def _decode_column_segment(self, _page_id: int, lo: int, hi: int):
        """Column layout: assemble [lo, hi) of every needed column."""
        table = self.table
        span = hi - lo
        valid = np.ones(span, dtype=bool)
        columns: dict[str, np.ndarray] = {}
        pages: list[tuple] = []
        for name in self.attrs:
            column_file = table.column_file(name)
            dtype = table.schema.attribute(name).attr_type.numpy_dtype()
            out = np.zeros(span, dtype=dtype)
            page_id = int(
                column_file.page_of_positions(np.asarray([lo], dtype=np.int64))[0]
            )
            row = lo
            while row < hi:
                if page_id >= column_file.file.num_pages:
                    raise EngineError(
                        f"column {name!r} ran out of pages at row {row} of "
                        f"[{lo}, {hi})"
                    )
                page_first = column_file.first_row_of_page(page_id)
                page_span = column_file.row_span_of_page(page_id, table.num_rows)
                take_lo = max(row, page_first)
                take_hi = min(hi, page_first + page_span)
                if take_hi <= row:
                    page_id += 1
                    continue
                values, fault = self._column_page_values(
                    column_file, page_id, page_span
                )
                pages.append((column_file.file.name, page_id, fault))
                if values is None:
                    valid[take_lo - lo : take_hi - lo] = False
                else:
                    out[take_lo - lo : take_hi - lo] = values[
                        take_lo - page_first : take_hi - page_first
                    ]
                row = take_hi
                page_id += 1
            columns[name] = out
        return _SegmentData(lo, hi, columns, valid, pages)

    def _column_page_values(self, column_file, page_id: int, row_span: int):
        """One column page's ``(values, fault)``, through the rolling cache."""
        cache = self._page_cache.setdefault(column_file.file.name, {})
        if page_id in cache:
            return cache[page_id], None
        values, fault = self._read(
            column_file.decode_page, column_file.file, page_id, row_span
        )
        if values is not None:
            while len(cache) >= self._CACHE_PAGES:
                cache.pop(next(iter(cache)))
            cache[page_id] = values
        return values, fault


class SharedScanConsumer(Scanner):
    """One query's ride on a :class:`SharedScanStream`.

    Applies its *own* predicates and projection to every delivered
    segment (per-consumer CPU), buffers qualifying rows keyed by
    segment index, and — once its full circular pass completes — emits
    them re-assembled into global Record-ID order, split into
    engine-sized blocks.  Byte-identical to a cold serial scan of the
    same query.
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
        flight.record(
            "share.attach",
            self._flight_label(),
            table=share.table.schema.name,
            cursor=self.attach_cursor,
            segments=share.num_segments,
            riders=len(share.consumers),
        )
        self._buffered: list[tuple[int, Block]] = []
        self._finalized = False
        self._seen_pages: set[tuple[str, int]] = set()

    def describe(self) -> str:
        return (
            f"{super().describe()} | shared, attached@segment "
            f"{self.attach_cursor}/{self.share.num_segments}"
        )

    def _flight_label(self) -> str | None:
        """This rider's query label for flight-recorder attribution."""
        governance = self.context.governance
        return governance.label if governance is not None else None

    # --- stream side ------------------------------------------------------

    def _receive(self, index: int, data: _SegmentData) -> None:
        """Process one delivered segment (called by the stream).

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
            self._receive_inner(index, data)
            return
        frame = tracer.enter(self, "receive")
        try:
            self._receive_inner(index, data)
        finally:
            tracer.exit(frame, self.context.events)

    def _receive_inner(self, index: int, data: _SegmentData) -> None:
        self._remaining.discard(index)
        events = self.events
        span = data.hi - data.lo
        # Copy what the stream's reads found into this query's report,
        # once per page (a column page may serve several segments).
        corruption = self.context.corruption
        for file_name, page_id, fault in data.pages:
            key = (file_name, page_id)
            if key in self._seen_pages:
                continue
            self._seen_pages.add(key)
            if fault is None:
                corruption.pages_scanned += 1
            else:
                obs_metrics.PAGES_SALVAGED.inc()
                corruption.faults.append(fault)

        mask = data.valid.copy()
        events.values_examined += span
        qualified = apply_predicates(
            events, self._bound, data.columns, mask, int(np.count_nonzero(mask))
        )
        self._charge_lazy_decodes(span, qualified)
        if qualified:
            self._buffered.append(
                (index, self._project(data.columns, mask, qualified, data.lo))
            )

    # --- operator side ----------------------------------------------------

    def advance(self) -> bool:
        """One cooperative timeslice: pump the stream one segment.

        Returns True while more pumping is needed for *this* consumer;
        once its pass is complete the output is finalized and False is
        returned (drain the blocks with ``next()``).  Deliveries made
        while a *peer* pumps shrink ``_remaining`` too, so a consumer
        may finish without ever pumping itself.
        """
        if self._finalized:
            return False
        if self.share.failed is not None:
            raise self.share.failed
        self._governance_check()
        if self._remaining and not self.share.step():
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
        self._emit(merged if len(merged) else self._empty_block())

    def _next(self) -> Block | None:
        while not self._finalized:
            self.advance()
        if not self._ready:
            return None
        return self._ready.popleft()

    def _close(self) -> None:
        self.share.detach(self)


class ScanShareManager:
    """The attach point: route each query to a live compatible stream.

    Streams are keyed by (table identity, needed column set, integrity
    mode); a query matching a stream that still has riders attaches to
    it mid-flight (share *hit*), anything else starts a fresh stream
    (share *miss*).  Streams with no riders left are dropped — their
    I/O totals are kept for workload-level accounting.
    """

    def __init__(self) -> None:
        self._streams: dict[tuple, SharedScanStream] = {}
        self._history: list[SharedScanStream] = []
        self.hits = 0
        self.misses = 0

    def acquire(
        self, table: Table, query: ScanQuery, context: ExecutionContext
    ) -> SharedScanConsumer:
        """A consumer for ``query``, shared with compatible live scans."""
        key = share_key(table, query, context.strict_integrity)
        stream = self._streams.get(key)
        if stream is not None and stream.failed is None and stream.consumers:
            self.hits += 1
            obs_metrics.SCHEDULER_SHARE_HITS.inc()
        else:
            stream = SharedScanStream(
                table, query.scan_attributes(), context.strict_integrity
            )
            self._streams[key] = stream
            self._history.append(stream)
            self.misses += 1
            obs_metrics.SCHEDULER_SHARE_MISSES.inc()
        obs_metrics.SHARE_HIT_RATIO.set(self.hits / (self.hits + self.misses))
        return SharedScanConsumer(context, stream, query)

    def discard(self, consumer: SharedScanConsumer) -> None:
        """Detach a failed/cancelled rider without touching its peers."""
        consumer.share.detach(consumer)

    def live_streams(self) -> list[SharedScanStream]:
        """Streams that still have riders attached."""
        return [
            stream for stream in self._streams.values() if stream.consumers
        ]

    def board(self) -> list[dict]:
        """Live-stream summaries for the scheduler dashboard."""
        return [
            {
                "table": stream.table.schema.name,
                "cursor": stream.cursor,
                "segments": stream.num_segments,
                "riders": [
                    consumer._flight_label() or "?"
                    for consumer in stream.consumers
                ],
            }
            for stream in self.live_streams()
        ]

    def io_bytes(self) -> int:
        """Bytes read by every stream ever created, each counted once."""
        return sum(stream.io_events.bytes_read for stream in self._history)

    def io_pages(self) -> int:
        return sum(stream.io_events.pages_touched for stream in self._history)

    def stats(self) -> dict:
        return {
            "share_hits": self.hits,
            "share_misses": self.misses,
            "shared_io_bytes": self.io_bytes(),
            "shared_io_pages": self.io_pages(),
        }
