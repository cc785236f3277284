"""The scan core: what every scan strategy does, each written once.

Every scanner sits under one identical operator layer and differs only
in which bytes of a page it touches (Section 2.2.2); a scan is
select ∘ gather ∘ decompress over columns.  Here live

* :func:`guarded_decode` — the one accounted page read+decode under the
  integrity policy (strict aborts, salvage records and skips) — and
  :func:`guarded_decode_unit`, which serves a healthy I/O unit whole;
* :func:`apply_predicates` and :meth:`Scanner._project` — the predicate
  loop and the projection copy, with their cost accounting;
* :func:`guarded_units` — the one unit-at-a-time reader of a file's
  pages (:func:`unit_pages` at a time), a lazy generator: under
  :meth:`Scanner._guarded_units` (the dense :meth:`Scanner._dense_pages`
  and the pipelined scanner's position-driven nodes) and under a shared
  stream's windows (:mod:`repro.engine.sharing`);
* :class:`Scanner` — validation, access order, row window,
  ``describe()``, the empty block and the per-run filter kernel
  (:meth:`Scanner._filter_pages`, under :class:`PagedScanner` and a
  shared stream's riders) — with :class:`PagedScanner` (an I/O unit at a
  time, released as one batch of as many pages as the consumer wants:
  row, PAX) and :class:`RunOnceScanner` (whole table in the first
  ``next()``: fused, pipelined, index).

A strategy says how a page is charged to the memory hierarchy, when its
decompression is charged, and what it does with a decoded page.
Accounting stays per logical page — one guarded read per page read, one
``pages_touched`` per page decoded — whatever unit bytes are fetched or
decoded in (DESIGN.md, "Scan core").
"""

from __future__ import annotations

import time
from collections import deque
from types import SimpleNamespace

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.cache import page_lines
from repro.engine.blocks import Block, as_batch
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator, RunOnce
from repro.engine.predicate import Predicate
from repro.errors import CompressionError, PlanError, StorageError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight

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


def guarded_decode(
    context: ExecutionContext, decode, file, page: int, row_span: int, data=None
):
    """Read one page and ``decode`` its bytes, under the integrity policy.

    Strict mode lets any error propagate (a checksum mismatch aborts
    the query).  Salvage mode records the fault in ``context.corruption``
    — the page's nominal row span is the loss estimate — and returns
    ``None``: the caller skips the page but keeps positions aligned.
    Only successful decodes reach ``repro_page_decode_seconds``.
    ``data`` is the page's bytes when a unit read has fetched them.
    """
    timed = obs_metrics.enabled()
    try:
        if timed:
            started = time.perf_counter()
        result = decode(file.read_page(page) if data is None else data)
        if timed:
            obs_metrics.PAGE_DECODE_SECONDS.observe(time.perf_counter() - started)
    except SALVAGEABLE_ERRORS as exc:
        _salvage(context, file, page, row_span, exc)
        return None
    context.corruption.pages_scanned += 1
    return result


def guarded_decode_unit(
    context: ExecutionContext, decode_unit, file, start: int, count: int, row_span: int
):
    """Read an I/O unit and ``decode_unit`` it whole: ``(unit bytes, decoded)``.

    One read and one decode (which checks the CRCs) serve a healthy
    unit.  ``decoded`` is ``None`` when a page fails its checksum or the
    unit does not decode: the caller hands the pages' bytes to
    :func:`guarded_decode` one by one, which names the page and applies
    the policy.  ``unit`` is ``None`` when page ``start`` could not be
    read and salvage dropped it.  Pages count as scanned when the scan
    gets to them, which is the caller's to say.
    """
    timed = obs_metrics.enabled()
    if timed:
        started = time.perf_counter()
    try:
        unit = file.read_pages(start, count)
    except SALVAGEABLE_ERRORS as exc:
        _salvage(context, file, start, row_span, exc)
        return None, None
    try:
        decoded = decode_unit(unit)
    except SALVAGEABLE_ERRORS:
        decoded = None
    if timed and decoded is not None:
        pages = len(unit) // file.page_size
        obs_metrics.PAGE_DECODE_SECONDS.observe((time.perf_counter() - started) / pages, pages)
    return unit, decoded


def unit_pages(calibration, page_size: int) -> int:
    """Pages per I/O unit: what a scan reads, checks and decodes at once."""
    return max(1, calibration.io_unit_bytes // page_size)


def guarded_units(context, unit_size, file, pages, span_of, decode, checkpoint):
    """Read, check and decode the ascending ``pages`` of a file an I/O
    unit (``unit_size`` pages) at a time: yields ``(at, run, decoded)``.

    The one unit reader: under :meth:`Scanner._guarded_units` (the
    column scans) and a shared stream's windows (:mod:`repro.engine.
    sharing`), which pulls a piece only when a segment needs it.  A unit
    is a run of pages adjacent in the file, ``run`` of them from
    ``pages[at]``, read as one buffer; ``decoded`` is what
    ``decode(unit, at, run)`` made of it.  A unit that does not decode
    whole is served page by page from the bytes already read, so a fault
    names its page: ``decoded`` is then what ``decode(data, at, 1)``
    made of one page, or ``None`` where salvage dropped it
    (``span_of(at)`` rows are recorded lost).  A unit that comes back
    short — a later page would not read — is followed by one that starts
    at that page.  One ``checkpoint()`` per page, passed before anything
    of the page is yielded.
    """
    size = file.page_size
    at = 0
    while at < len(pages):
        checkpoint()
        page = pages[at]
        # A run ends at a gap, at the unit's size and at the end of
        # the file: a salvage-opened file can be shorter than its
        # directory, and each page past it is lost by name.
        longest = min(unit_size, len(pages) - at, file.num_pages - page)
        run = 1
        while run < longest and pages[at + run] == page + run:
            run += 1
        unit, decoded = guarded_decode_unit(
            context,
            lambda unit: decode(unit, at, len(unit) // size),
            file,
            page,
            run,
            span_of(at),
        )
        if unit is None:
            yield at, 1, None
            at += 1
            continue
        run = len(unit) // size
        if decoded is not None:
            for _page in range(1, run):
                checkpoint()
            context.corruption.pages_scanned += run
            yield at, run, decoded
            at += run
            continue
        for start in range(0, len(unit), size):
            if start:
                checkpoint()
            yield at, 1, guarded_decode(
                context,
                lambda data: decode(data, at, 1),
                file,
                pages[at],
                span_of(at),
                unit[start : start + size],
            )
            at += 1


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

    def scan_attribute_order(self) -> list[str]:
        """The attributes this scan reads, deepest (predicates) first."""
        return list(self._attrs)

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

    def _guarded(self, decode, file, page: int, row_span: int, data=None):
        """:func:`guarded_decode` for this query.

        ``repro_pages_salvaged_total`` counts once per *query* that lost
        the page, so it is counted here and not in the guarded read,
        which a shared stream performs on behalf of all its riders.
        """
        result = guarded_decode(self.context, decode, file, page, row_span, data)
        if result is None:
            obs_metrics.PAGES_SALVAGED.inc()
        return result

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
        return self._copy_out(columns, mask, row_base)

    def _charge_projection(self, qualified: int) -> None:
        events = self.events
        events.values_copied += qualified * len(self.select)
        events.bytes_copied += qualified * self._selected_width

    def _copy_out(self, columns, mask, row_base: int) -> Block:
        rows = np.flatnonzero(mask)
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

        The one per-run kernel, under :class:`PagedScanner` (a unit's
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
        return numbers, self._copy_out(columns, mask, row_base)

    def _guarded_units(self, file, pages, span_of, decode):
        """:func:`guarded_units` for this query: its context, its unit,
        one governance checkpoint per page.

        ``repro_pages_salvaged_total`` counts once per *query* that lost
        a page, so it is counted here and not in the unit reader, which
        a shared stream runs on behalf of all its riders.
        """
        for piece in guarded_units(
            self.context, self._unit_pages, file, pages, span_of, decode, self._governance_check
        ):
            if piece[2] is None:
                obs_metrics.PAGES_SALVAGED.inc()
            yield piece

    def _dense_pages(self, column_file, codes=False):
        """Yield ``(row_base, rows, data)`` per run of pages of one column in the window.

        Pages wholly before the window are skipped without I/O; the rest
        arrive through :meth:`_guarded_units`, and a healthy unit is one
        run: ``data`` holds the ``rows`` values (or, on request, the
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

        def decode(data, _at, _run):
            return column_file.decode_unit(data, codes)

        for at, run, decoded in self._guarded_units(file, pages, span_of, decode):
            if decoded is None:
                rows, data = span_of(at), None
            else:
                counts, data = decoded
                rows = len(data)
                events.pages_touched += run
                for count in counts.tolist():
                    events.mem_seq_lines += page_lines(count, bits, l2_line_bytes)
                    events.l1_lines += page_lines(count, bits, l1_line_bytes)
            yield row_base, rows, data
            row_base += rows
        if pages.stop < file.num_pages:
            self._governance_check()  # the page the window ends before


class PagedScanner(Scanner):
    """Unit-at-a-time scan of a one-file table (row and PAX layouts).

    Reads the pages overlapping the row window an I/O unit
    (``calibration.io_unit_bytes``) at a time — one read, CRC loop,
    decode, predicate pass and projection per unit — and releases them
    as one batch, or as many of them as the consumer wants: a page's
    checkpoint, events and fault land, and its logical blocks are handed
    off, only once the consumer's demand reaches it, so a scan that
    stops early has touched what a page-at-a-time scan would have
    (DESIGN.md, "Scan core").  Subclasses say how pages are charged to
    the caches.
    """

    def _open(self) -> None:
        super()._open()
        self._page_index = 0  # the next page to read
        self._row_base = 0  # the first row of the next page to release
        #: Pages read but not yet released, in file order: a unit as
        #: ``[numbers, block, pages released]`` of :meth:`_filter_unit`,
        #: or, when it has to be decoded page by page, each page's bytes.
        self._pending: deque = deque()
        self._emitted_any = False

    def _decode(self, page: bytes):
        return self.table.decode_page(page, self._attrs)

    def _decode_unit(self, unit: bytes):
        return self.table.decode_unit(unit, self._attrs)

    def _next(self, want: int | None) -> Block | None:
        lo, hi = self.row_range
        table = self.table
        while self._held is None:
            if self._pending:
                self._release(want)
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
            self._read_unit(index, span, want)
        self._emitted_any = True
        return self._pop(want)

    def _read_unit(self, first: int, span: int, want: int | None) -> None:
        """Read and decode the unit starting at page ``first``, whose
        checkpoint has been passed, and release from it."""
        table = self.table
        file = table.file
        # Pages hold at most ``capacity`` tuples, so this many more are
        # certain to start inside the window.
        capacity = table.page_codec.tuples_per_page
        wanted = -(-(self.row_range[1] - self._row_base) // capacity)
        pages = min(self._unit_pages, file.num_pages - first, wanted)
        unit, decoded = guarded_decode_unit(
            self.context, self._decode_unit, file, first, pages, span
        )
        if unit is None:
            # Salvage: skip the unreadable page but advance the global
            # row position by its nominal span so later pages' Record
            # IDs — and any position-joined column files — stay aligned.
            obs_metrics.PAGES_SALVAGED.inc()
            self._page_index += 1
            self._row_base += span
            return
        size = file.page_size
        self._page_index += len(unit) // size
        if decoded is not None:
            self._pending.append([*self._filter_unit(*decoded), 0])
        else:
            # The unit failed as a whole: its pages one by one as they
            # are reached, from the bytes already read, so the fault
            # names its page and the other pages' rows survive.
            self._pending.extend(unit[at : at + size] for at in range(0, len(unit), size))
        self._release(want, passed=1)

    def _filter_unit(self, counts: np.ndarray, columns) -> tuple[np.ndarray, Block]:
        """:meth:`_filter_pages` over decoded pages that start at row
        ``_row_base``, inside the row window."""
        mask, _in_range = window_mask(int(counts.sum()), self._row_base, self.row_range)
        return self._filter_pages(counts, columns, mask, self._row_base)

    def _release(self, want: int | None, passed: int = 0) -> None:
        """Release the next pages in file order — all that are pending,
        or up to the one whose qualifiers reach ``want`` — as one batch.

        ``passed`` of them have had their checkpoint; the others pass
        theirs first, one per page, and then the run is charged and held
        as a batch.  A page is never charged before its checkpoint: when
        one raises, exactly the pages before it are charged.
        """
        head = self._pending[0]
        if isinstance(head, bytes):
            self._pending.popleft()
            if not passed:
                self._governance_check()
            table = self.table
            index = self._page_index - len(self._pending) - 1
            span = table.row_span_of_page(index)
            decoded = self._guarded(self._decode, table.file, index, span, data=head)
            if decoded is None:
                self._row_base += span
                return
            self._charge_run(*self._filter_unit(np.array([decoded[0]]), decoded[1]), 0, 1)
            return
        numbers, block, at = head
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
            head[2] = reached
            if reached == numbers.shape[1]:
                self._pending.popleft()

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
