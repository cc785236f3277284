"""The scan core: what every scan strategy does, each written once.

Every scanner sits under one identical operator layer and differs only
in which bytes of a page it touches (Section 2.2.2); a scan is
select ∘ gather ∘ decompress over columns.  Here live

* :func:`guarded_units` — the one reader under every paged scan
  (:class:`PagedScanner`, :meth:`Scanner._guarded_units` and a shared
  stream's windows), one read step per ``next()``: a prefetch window
  (:func:`window_stop`) read, checked and decoded whole
  (:func:`guarded_decode_unit`), or one page of a window that was not,
  decoded under the integrity policy (:func:`guarded_decode`: strict
  aborts, salvage records and skips).  Checkpoints and page counts are
  its callers'; row and PAX pages decode through
  :func:`decode_tuple_pages`, which holds each to its nominal span;
* :func:`apply_predicates` and :meth:`Scanner._project` — the predicate
  loop and the projection copy, with their cost accounting;
* :class:`Scanner` — validation, access order, row window,
  ``describe()``, the empty block and the per-run filter kernel
  (:meth:`Scanner._filter_pages`, under :class:`PagedScanner` and a
  shared stream's riders) — with :class:`PagedScanner` (a prefetch
  window of I/O units at a time, released as one batch of as many pages
  as the consumer wants: row, PAX) and :class:`RunOnceScanner` (whole
  table in the first ``next()``: fused, pipelined, index).

A strategy says how a page is charged to the memory hierarchy, when its
decompression is charged, and what it does with a decoded page.
Accounting stays per logical page — one checkpoint and one
``pages_scanned`` per page taken, one ``pages_touched`` per page
decoded — whatever unit bytes are fetched or decoded in (DESIGN.md,
"Scan core").
"""

from __future__ import annotations

import time
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.cache import page_lines
from repro.engine.blocks import Block, as_batch
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator, RunOnce
from repro.engine.predicate import Predicate
from repro.errors import ChecksumError, CompressionError, PageFormatError, PlanError
from repro.errors import StorageError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.storage.page import check_placed, check_span, verify_unit

#: What salvage mode treats as "this page is corrupt, skip it": checksum
#: mismatches, malformed page bytes, codec failures, missing pages, and
#: transient faults whose retry budget is exhausted.
SALVAGEABLE_ERRORS = (StorageError, CompressionError)


def _salvage(context: ExecutionContext, file, page: int, row_span: int, exc) -> None:
    """The integrity policy for a page that failed: abort or record and skip."""
    if context.strict_integrity:
        raise exc
    flight.record(
        "storage.salvage",
        context.label,
        file=file.name,
        page=page,
        error=type(exc).__name__,
    )
    context.corruption.record(file.name, page, row_span, exc)


def guarded_decode(context: ExecutionContext, decode, file, page: int, row_span: int, data):
    """``decode(data, verify)`` page ``page``'s bytes, ``data``, read with
    its window, under the integrity policy: the decoded page, or ``None``.

    Strict mode lets any error propagate (a checksum mismatch aborts
    the query).  Salvage mode records the fault in ``context.corruption``
    — the page's nominal row span is the loss estimate — and returns
    ``None``: the caller skips the page but keeps positions aligned.
    Only successful decodes reach ``repro_page_decode_seconds``.
    ``verify`` is false for a page the file has already seen pass its
    CRC (:meth:`~repro.storage.pagefile.PagedFile.verified`); a page
    that passes it here, and names its own position in its trailer
    (:func:`~repro.storage.page.check_placed`), is marked so.  A page
    whose bytes a unit's check has just seen fail is not checked again:
    that failure is its fault.
    """
    timed = obs_metrics.enabled()
    verify = not file.verified((page,))
    failed = file.failed_check
    try:
        if timed:
            started = time.perf_counter()
        if failed is not None and failed[0] == page and failed[1] == data:
            file.failed_check = None
            raise failed[2]
        result = decode(data, verify)
        if verify:
            check_placed(data, (page,), file.page_size)
        if timed:
            obs_metrics.PAGE_DECODE_SECONDS.observe(time.perf_counter() - started)
    except SALVAGEABLE_ERRORS as exc:
        _salvage(context, file, page, row_span, exc)
        return None
    if verify:
        file.mark_verified((page,))
    return result


def guarded_decode_unit(context: ExecutionContext, decode_unit, file, pages, row_span: int):
    """Read the ascending ``pages`` as one buffer
    (:meth:`~repro.storage.pagefile.PagedFile.read_pages`) — a prefetch
    window of I/O units (:func:`window_stop`) — and ``decode_unit(unit,
    verify)`` it whole: ``(unit bytes, decoded)``.

    Each page's CRC is checked once per load, by what the file says its
    pages have passed since it was loaded
    (:meth:`~repro.storage.pagefile.PagedFile.verified`): a unit none of
    whose pages has is decoded with every check, and its pages are
    marked when it decodes; one whose pages all have is decoded with no
    check; one with some of each has its unverified pages checked here,
    each marked as it passes, and is then decoded with no check.  An
    unverified page must also name its position in its trailer
    (:func:`~repro.storage.page.check_placed`).
    ``decoded`` is ``None`` when a page fails either check or the unit
    does not decode: :func:`guarded_units` then serves the pages from
    the bytes read, one by one through :func:`guarded_decode`, which
    names the page and applies the policy — a page this check saw fail
    is not checked twice.  ``unit`` is ``None`` when page ``pages[0]``
    could not be read and salvage dropped it; it holds fewer pages than
    listed when a later one could not be read.
    """
    timed = obs_metrics.enabled()
    if timed:
        started = time.perf_counter()
    try:
        unit = file.read_pages(pages)
    except SALVAGEABLE_ERRORS as exc:
        _salvage(context, file, pages[0], row_span, exc)
        return None, None
    read = pages[: len(unit) // file.page_size]
    verified = file.verified(read)
    if 0 < verified < len(read) and not _check_unverified(file, unit, read):
        return unit, None
    try:
        decoded = decode_unit(unit, not verified)
        if not verified:
            check_placed(unit, read, file.page_size)
    except SALVAGEABLE_ERRORS:
        return unit, None
    if not verified:
        file.mark_verified(read)
    if timed:
        seconds = time.perf_counter() - started
        obs_metrics.PAGE_DECODE_SECONDS.observe(seconds / len(read), len(read))
    return unit, decoded


def _check_unverified(file, unit, read) -> bool:
    """Check the CRC and placement of each page of ``unit`` (``read``,
    back to back) that ``file`` has not seen pass, marking it when it
    does; False at the first that fails, whose bytes and error the file
    then keeps for that page's own decode (:func:`guarded_decode`)."""
    size = file.page_size
    for at, page in enumerate(read):
        if not file.verified((page,)):
            data = unit[at * size : (at + 1) * size]
            try:
                verify_unit(data, size)
                check_placed(data, (page,), size)
            except (ChecksumError, PageFormatError) as exc:
                file.failed_check = (page, bytes(data), exc.with_traceback(None))
                return False
            file.mark_verified((page,))
    return True


def unit_pages(calibration, page_size: int) -> int:
    """Pages per I/O unit: what a prefetch window is counted in, and what
    a row or PAX scan reads under a demand hint."""
    return max(1, calibration.io_unit_bytes // page_size)


def window_pages(calibration, page_size: int) -> int:
    """Pages per prefetch window: ``default_prefetch_depth`` I/O units."""
    return unit_pages(calibration, page_size) * calibration.default_prefetch_depth


def window_stop(file, pages, at: int, span: int) -> int:
    """Where one read of the ascending ``pages`` from ``pages[at]`` stops:
    the index of the first listed page it leaves for the next.

    The one window rule, for every scan and shared stream: the listed
    pages that lie within ``span`` pages of ``pages[at]`` (a prefetch
    window, :func:`window_pages`), and inside the file, whatever their
    verification state (:func:`guarded_decode_unit` checks the pages
    that need it and decodes the window whole).
    """
    first = pages[at]
    # A window ends at the end of the file: a salvage-opened file can be
    # shorter than its directory, and each page past it is lost by name.
    end = min(first + span, file.num_pages)
    return bisect_left(pages, end, at + 1, min(len(pages), at + span))


def guarded_units(context, span, file, pages, span_of, decode):
    """Read, check and decode the ascending ``pages`` of a file a window
    of up to ``span`` pages at a time: yields ``(at, run, decoded)``, one
    read step per ``next()``.

    The one reader under every paged scan: :class:`PagedScanner` (a
    generator per window), :meth:`Scanner._guarded_units` (the column
    nodes) and a shared stream's feeds (:mod:`repro.engine.sharing`).
    A window is what :func:`window_stop` says: ``pages[at]`` and the
    listed pages after it that one read takes, ``run`` of them, read as
    one buffer of those pages alone — a page the list skips is never
    read, checked or counted.  ``decoded`` is what ``decode(unit, at, run, verify)`` made
    of it, ``verify`` saying whether to check the CRCs
    (:func:`guarded_decode_unit`).  A window that does not decode whole
    is served a page a step from the bytes already read, so a fault
    names its page: ``decoded`` is then what ``decode(data, at, 1,
    verify)`` made of one page, or ``None`` where salvage dropped it
    (``span_of(at)`` rows are recorded lost).  A window that comes back
    short — a later page would not read — is followed by one that starts
    at that page.  A pure reader: a governed caller passes its
    checkpoints, and the scan that takes a piece counts its pages.
    """
    size = file.page_size
    at = 0
    while at < len(pages):
        stop = window_stop(file, pages, at, span)
        unit, decoded = guarded_decode_unit(
            context,
            lambda unit, verify: decode(unit, at, len(unit) // size, verify),
            file,
            pages[at:stop],
            span_of(at),
        )
        if unit is None:
            yield at, 1, None
            at += 1
            continue
        run = len(unit) // size
        # This generator waits across yields, holding then no view of
        # the file's buffer (which would keep the file from growing).
        if decoded is not None:
            unit = None
            yield at, run, decoded
            at += run
            continue
        unit = bytes(unit)
        for start in range(0, run * size, size):
            yield at, 1, guarded_decode(
                context,
                lambda data, verify: decode(data, at, 1, verify),
                file,
                pages[at],
                span_of(at),
                unit[start : start + size],
            )
            at += 1


def decode_tuple_pages(table, attrs, unit, verify: bool):
    """``table.decode_unit(unit, attrs, verify)`` of adjacent row or PAX
    pages, a window or one page: the decode the serial scan and a shared
    stream hand :func:`guarded_units`.

    Density holds each page but the last to capacity; the last must hold
    ``row_span_of_page`` of the page its trailer names
    (:func:`~repro.storage.page.check_span`).  A CRC-valid page claiming
    fewer tuples, which would shift every later Record ID, raises
    :class:`~repro.errors.PageFormatError`, so the reader serves its
    window page by page and the integrity policy names it.
    """
    counts, columns = table.decode_unit(unit, attrs, verify)
    check_span(unit, table.page_size, table.row_span_of_page)
    return counts, columns


def check_column_unit(column_file, num_rows: int, unit, verify: bool) -> None:
    """What a decode of adjacent column pages does first: check their
    CRCs unless ``verify`` is false, then hold them to the rule of
    :func:`decode_tuple_pages` (:func:`~repro.storage.page.check_span`),
    so a short page raises before any value or position is taken from
    it.  The caller then decodes unchecked."""
    size = column_file.page_codec.page_size
    if verify:
        verify_unit(unit, size)
    check_span(unit, size, lambda page: column_file.row_span_of_page(page, num_rows))


def _count(mask) -> int:
    return int(np.count_nonzero(mask))


def apply_predicates(events, bound, columns, mask, candidates, count=_count):
    """AND every predicate into ``mask`` in place; returns how many qualify.

    ``bound`` holds ``(predicate, attr, operand_bytes)`` triples: the
    attribute names the operand array in ``columns`` and the byte width
    is what one comparison reads — the attribute's width, or the code
    width when a rewritten code predicate compares packed codes.
    ``candidates`` is how many tuples the first predicate examines;
    each later one examines the survivors of those before it.  ``count``
    tallies a mask: a scan of several pages at once passes one that
    counts per page, and every number here is then a per-page vector.
    """
    for index, (predicate, attr, operand_bytes) in enumerate(bound):
        if index:
            candidates = count(mask)
        events.predicate_evals += candidates
        events.predicate_eval_bytes += candidates * operand_bytes
        mask &= predicate.evaluate(columns[attr])
    return count(mask)


def window_mask(count: int, row_base: int, row_range: tuple[int, int]):
    """``(mask, in_range)`` selecting a page's or unit's tuples inside the row window.

    Pages are decoded (and charged) whole; tuples outside ``[lo, hi)``
    are never examined.
    """
    lo, hi = row_range
    start = max(0, lo - row_base)
    stop = max(start, min(count, hi - row_base))
    mask = np.zeros(count, dtype=bool)
    mask[start:stop] = True
    return mask, stop - start


def normalize_row_range(
    row_range: tuple[int, int] | None, num_rows: int
) -> tuple[int, int]:
    """Clamp a half-open ``[lo, hi)`` row window to the table.

    ``None`` means the whole table.  The window is what horizontal
    partitioning (``repro.storage.partition``) hands each parallel
    worker; positions emitted under a window stay *global* Record IDs.
    """
    if row_range is None:
        return (0, num_rows)
    lo, hi = row_range
    if lo < 0 or hi < lo:
        raise PlanError(f"invalid row range: [{lo}, {hi})")
    return (min(lo, num_rows), min(hi, num_rows))


class Scanner(Operator):
    """What every scan strategy shares above its page loop."""

    #: Row pages and shared segments arrive fully decoded, so their
    #: strategies charge decompression lazily, for what the query
    #: touches (:meth:`_charge_lazy_decodes`): a predicate attribute for
    #: the whole page, a selected one for the qualifying tuples only —
    #: except the kinds listed here, which cannot be decoded in part.
    LAZY_WHOLE_PAGE_KINDS: tuple[CodecKind, ...] = ()

    #: An empty *interior* window such as ``(50, 50)`` still falls on a
    #: page, and a loop that stops at ``row_base >= hi`` reads (and
    #: charges) that page to examine none of its tuples.  Row, PAX and
    #: pipelined scans do; the fused scan, which sizes its dense columns
    #: from the window first, reads nothing (:meth:`_dense_pages` asks).
    #: The partitioner only hands out empty windows at the end of the
    #: table, where no strategy reads a page, so both behaviours are
    #: kept (and pinned by the golden) rather than "fixed" either way.
    EMPTY_WINDOW_READS_A_PAGE = True

    def __init__(
        self,
        context: ExecutionContext,
        table,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        row_range: tuple[int, int] | None = None,
    ):
        super().__init__(context)
        if not select:
            raise PlanError(f"{type(self).__name__} needs a non-empty select list")
        schema = table.schema
        self.table = table
        self.select = tuple(select)
        self.predicates = tuple(predicates)
        self.row_range = normalize_row_range(row_range, table.num_rows)
        for predicate in self.predicates:
            # A constant the attribute cannot be compared with fails the
            # plan here, not a page (or a peer's shared pass) later.
            dtype = schema.attribute(predicate.attr).attr_type.numpy_dtype()
            try:
                predicate.evaluate(np.zeros(1, dtype=dtype))
            except Exception as exc:
                raise PlanError(
                    f"{schema.name}.{predicate.attr} ({dtype}) cannot be compared "
                    f"with {predicate.value!r}: {exc}"
                ) from exc
        #: ``(predicate, attr, operand bytes)`` for :func:`apply_predicates`.
        self._bound = tuple(
            (p, p.attr, schema.attribute(p.attr).width) for p in self.predicates
        )
        self._selected_width = sum(schema.attribute(name).width for name in select)
        #: Accessed attributes in access order: predicate attributes
        #: first (pushed deepest), then the rest of the select list.
        filtered = list(dict.fromkeys(p.attr for p in self.predicates))
        self._attrs = filtered + [name for name in select if name not in filtered]
        self._predicate_kinds = self._compressed_kinds(filtered)
        self._select_kinds = self._compressed_kinds(self._attrs[len(filtered) :])
        self._unit_pages = unit_pages(context.calibration, table.page_size)

    def _compressed_kinds(self, names) -> list[CodecKind]:
        specs = (self.table.schema.attribute(name).spec for name in names)
        return [spec.kind for spec in specs if spec.is_compressed]

    def describe(self) -> str:
        detail = f"{self.table.schema.name}: {', '.join(self.select)}"
        if self.predicates:
            detail += f" | {len(self.predicates)} predicate(s)"
        lo, hi = self.row_range
        if (lo, hi) != (0, self.table.num_rows):
            detail += f" | rows [{lo}, {hi})"
        return detail

    def _open(self) -> None:
        self._held = None

    def _charge_lazy_decodes(self, tuples: int, on_hit_pages: int, qualified: int) -> None:
        """Decompression of already-decoded pages, for what was touched:
        ``tuples`` on the pages, ``on_hit_pages`` of them on the pages
        with a qualifying tuple, ``qualified`` in all."""
        events = self.events
        for kind in self._predicate_kinds:
            events.count_decode(kind, tuples)
        whole = self.LAZY_WHOLE_PAGE_KINDS
        for kind in self._select_kinds:
            events.count_decode(kind, on_hit_pages if kind in whole else qualified)

    def _project(self, columns, mask, qualified: int, row_base: int) -> Block:
        """Copy the qualifying tuples' selected attributes into a block."""
        self._charge_projection(qualified)
        return self._copy_out(columns, np.flatnonzero(mask), row_base)

    def _charge_projection(self, qualified: int) -> None:
        events = self.events
        events.values_copied += qualified * len(self.select)
        events.bytes_copied += qualified * self._selected_width

    def _copy_out(self, columns, rows: np.ndarray, row_base: int) -> Block:
        """The selected attributes of ``columns`` at offsets ``rows``."""
        return Block(
            columns={name: columns[name][rows] for name in self.select},
            positions=row_base + rows,
        )

    def _empty_block(self) -> Block:
        """A zero-row block that keeps the output schema alive."""
        schema = self.table.schema
        columns = {
            name: np.zeros(0, dtype=schema.attribute(name).attr_type.numpy_dtype())
            for name in self.select
        }
        return Block(columns=columns, positions=np.zeros(0, dtype=np.int64))

    def _filter_pages(
        self, counts: np.ndarray, columns, mask, row_base: int
    ) -> tuple[np.ndarray, Block]:
        """Filter and project adjacent decoded pages in one pass.

        The one per-run kernel, under :class:`PagedScanner` (a window's
        pages) and a shared stream's riders (a window's segments).
        ``columns`` hold the pages' tuples back to back from row
        ``row_base`` on, ``counts`` how many each page contributed;
        ``mask`` says which of them are candidates — inside the row
        window, or off a page that decoded — and is consumed.  Returns
        ``(numbers, block)``: the block of all the pages' qualifying
        tuples and, a row per quantity and a column per page, what each
        page's release charges and emits — its tuples, candidates,
        predicate evaluations, their operand bytes, qualifying tuples
        and their offset in the block.
        """
        starts = np.cumsum(counts) - counts
        nonempty = counts > 0

        def per_page(mask) -> np.ndarray:
            # One False more, so a last page without tuples starts in
            # range; what reduceat reads for any empty page is dropped.
            return np.add.reduceat(np.append(mask, False), starts, dtype=np.int64) * nonempty

        candidates = per_page(mask)
        tally = SimpleNamespace(predicate_evals=0 * candidates, predicate_eval_bytes=0 * candidates)
        qualified = apply_predicates(tally, self._bound, columns, mask, candidates, per_page)
        numbers = np.array(
            (
                counts,
                candidates,
                tally.predicate_evals,
                tally.predicate_eval_bytes,
                qualified,
                np.cumsum(qualified) - qualified,
            )
        )
        return numbers, self._copy_out(columns, np.flatnonzero(mask), row_base)

    def _guarded_units(self, file, pages, span_of, decode):
        """:func:`guarded_units` for this query, in its prefetch window:
        one checkpoint before each pull and, when governed, one for each
        later page of a whole window before it is handed on; a decoded
        piece's pages count as scanned.

        ``repro_pages_salvaged_total`` counts once per *query* that lost
        a page, so it is counted here and not in the window reader, which
        a shared stream runs on behalf of all its riders.
        """
        context = self.context
        pieces = guarded_units(
            context, window_pages(context.calibration, file.page_size), file, pages, span_of, decode
        )
        at = 0
        while at < len(pages):
            self._governance_check()
            piece = at, run, decoded = next(pieces)
            if decoded is None:
                obs_metrics.PAGES_SALVAGED.inc()
            else:
                if context.governance is not None:
                    for _page in range(1, run):
                        self._governance_check()
                context.corruption.pages_scanned += run
            yield piece
            at += run

    def _dense_pages(self, column_file, codes=False):
        """Yield ``(row_base, rows, data)`` per run of pages of one column in the window.

        Pages wholly before the window are skipped without I/O; the rest
        arrive through :meth:`_guarded_units`, and a healthy window is
        one run: ``data`` holds the ``rows`` values (or, on request, the
        undecoded ``codes``) of all its pages.  A page salvage had to
        drop yields ``data=None`` and its nominal span as ``rows`` — a
        placeholder that keeps later rows, and the other columns,
        aligned.  Pages are charged here, each as one page touched and
        its lines streamed through the caches, whatever they arrived in.
        """
        events = self.events
        l2_line_bytes = self.context.calibration.l2_line_bytes
        l1_line_bytes = self.context.calibration.l1_line_bytes
        file = column_file.file
        num_rows = self.table.num_rows
        bits = column_file.page_codec.codec.bits_per_value
        lo, hi = self.row_range
        if lo == hi and not self.EMPTY_WINDOW_READS_A_PAGE:
            return

        page = row_base = 0
        while page < file.num_pages and row_base < hi:
            span = column_file.row_span_of_page(page, num_rows)
            if row_base + span > lo:
                break
            self._governance_check()
            page += 1
            row_base += span
        # The file's own directory says which page holds the window's
        # last row; a page's capacity does not (an RLE page holds as
        # many rows as its runs are long).
        last = column_file.page_of_positions(np.array([hi - 1]))[0] if hi else -1
        pages = range(page, max(page, min(file.num_pages, int(last) + 1)))

        def span_of(at):
            return column_file.row_span_of_page(pages[at], num_rows)

        def decode(data, _at, _run, verify):
            check_column_unit(column_file, num_rows, data, verify)
            return column_file.decode_unit(data, codes, verify=False)

        for at, run, decoded in self._guarded_units(file, pages, span_of, decode):
            if decoded is None:
                rows, data = span_of(at), None
            else:
                counts, data = decoded
                rows = len(data)
                events.pages_touched += run
                events.mem_seq_lines += int(page_lines(counts, bits, l2_line_bytes).sum())
                events.l1_lines += int(page_lines(counts, bits, l1_line_bytes).sum())
            yield row_base, rows, data
            row_base += rows
        if pages.stop < file.num_pages:
            self._governance_check()  # the page the window ends before


class PagedScanner(Scanner):
    """Window-at-a-time scan of a one-file table (row, ROW-Z and PAX layouts).

    Reads the pages overlapping the row window through
    :func:`guarded_units`, one generator per window, one checkpoint
    before each pull.  The window is one I/O unit under a demand hint,
    so that a ``Limit`` decodes no further than the unit its answer ends
    in, else a prefetch window (``calibration.default_prefetch_depth``
    units of ``calibration.io_unit_bytes``), and never holds a page past
    those that can still hold wanted rows.  A piece — a whole window, in
    one predicate pass and projection, or one page of a window that did
    not decode whole — is released as one batch, or as many of its
    pages as the consumer wants: a page's checkpoint, events,
    ``pages_scanned`` and fault land, and its logical blocks are handed
    off, only once the consumer's demand reaches it, so a scan that
    stops early has touched what a page-at-a-time scan would have
    (DESIGN.md, "Scan core").  A cancel or a deadline is seen at least
    once a window: up to 6 MB (48 units of 128 KB) read and decoded
    between two checkpoints.  Subclasses say how pages are charged to
    the caches.
    """

    def _open(self) -> None:
        super()._open()
        self._page_index = 0  # the next page to read
        self._row_base = 0  # the first row of the next page to release
        #: The window's pages, and its unread pieces (``None`` when none).
        self._window = range(0)
        self._pieces = None
        #: The piece read and not all released: ``[numbers, block, pages
        #: released]`` of :meth:`_filter_unit`.
        self._run: list | None = None
        self._emitted_any = False

    def _decode_unit(self, unit, _at, _run, verify: bool):
        return decode_tuple_pages(self.table, self._attrs, unit, verify)

    def _span_of(self, at: int) -> int:
        return self.table.row_span_of_page(self._window[at])

    def _next(self, want: int | None) -> Block | None:
        lo, hi = self.row_range
        table = self.table
        while self._held is None:
            if self._run is not None:
                self._release(want)
                continue
            if self._pieces is not None:
                self._governance_check()
                self._read_piece(want)
                continue
            index = self._page_index
            if index >= table.file.num_pages or self._row_base >= hi:
                if not self._emitted_any:
                    # Emit one empty block so the output schema survives
                    # a scan with no qualifying tuples.
                    self._emitted_any = True
                    return self._empty_block()
                return None
            self._governance_check()
            span = table.row_span_of_page(index)
            if self._row_base + span <= lo:
                # Page entirely before the row window: skip without I/O.
                self._page_index += 1
                self._row_base += span
                continue
            # Pages hold at most ``capacity`` tuples, so this many more
            # are certain to start inside the window.
            wanted = -(-(hi - self._row_base) // table.page_codec.tuples_per_page)
            pages = self._unit_pages
            if want is None:
                pages = window_pages(self.context.calibration, table.page_size)
            self._window = range(index, min(table.file.num_pages, index + wanted, index + pages))
            self._pieces = guarded_units(
                self.context, pages, table.file, self._window, self._span_of, self._decode_unit
            )
            self._read_piece(want)
        self._emitted_any = True
        return self._pop(want)

    def _read_piece(self, want: int | None) -> None:
        """Pull the window's next piece, whose checkpoint has been passed,
        and release from it."""
        at, run, decoded = next(self._pieces)
        self._page_index += run
        if self._page_index == self._window.stop:
            self._pieces = None
        if decoded is None:
            # Salvage: skip the page but advance the global row position
            # by its nominal span so later pages' Record IDs — and any
            # position-joined column files — stay aligned.
            obs_metrics.PAGES_SALVAGED.inc()
            self._row_base += self._span_of(at)
            return
        self._run = [*self._filter_unit(*decoded), 0]
        self._release(want, passed=1)

    def _filter_unit(self, counts: np.ndarray, columns) -> tuple[np.ndarray, Block]:
        """:meth:`_filter_pages` over decoded pages that start at row
        ``_row_base``, inside the row window."""
        mask, _in_range = window_mask(int(counts.sum()), self._row_base, self.row_range)
        return self._filter_pages(counts, columns, mask, self._row_base)

    def _release(self, want: int | None, passed: int = 0) -> None:
        """Release the next pages of the piece read — all the rest, or up
        to the one whose qualifiers reach ``want`` — as one batch.

        ``passed`` of them have had their checkpoint; the others pass
        theirs first, one per page, and then the run is charged, counted
        as scanned and held as a batch.  A page is never charged before
        its checkpoint: when one raises, exactly the pages before it are
        charged.
        """
        run = self._run
        numbers, block, at = run
        stop = numbers.shape[1]
        if want is not None:
            reach = np.searchsorted(np.cumsum(numbers[4, at:]), want)
            stop = min(stop, at + int(reach) + 1)
        reached = stop if self.context.governance is None else at + passed
        try:
            while reached < stop:
                self._governance_check()
                reached += 1
        finally:
            self.context.corruption.pages_scanned += reached - at
            self._charge_run(numbers, block, at, reached)
            run[2] = reached
            if reached == numbers.shape[1]:
                self._run = None

    def _charge_run(self, numbers: np.ndarray, block: Block, at: int, stop: int) -> None:
        """Charge pages ``[at, stop)`` of a filtered run and hold their batch."""
        if stop == at:
            return
        counts, qualified = numbers[0, at:stop], numbers[4, at:stop]
        count, in_range, evals, eval_bytes, emitted = numbers[:5, at:stop].sum(axis=1).tolist()
        events = self.events
        events.pages_touched += stop - at
        events.tuples_examined += in_range
        events.predicate_evals += evals
        events.predicate_eval_bytes += eval_bytes
        self._charge_pages(counts, qualified)
        self._row_base += count
        if emitted:
            self._charge_projection(emitted)
            if emitted < len(block):
                start = int(numbers[5, at])
                block = block.take(slice(start, start + emitted))
            self._held = as_batch(block, self.context.block_size, qualified)

    def _charge_pages(self, counts: np.ndarray, qualified: np.ndarray) -> None:
        """Charge decoded pages — caches and decompression — given each
        one's tuples and qualifying tuples (hook)."""
        raise NotImplementedError


class RunOnceScanner(RunOnce, Scanner):
    """A scan that does all its work inside the first ``next()``."""
