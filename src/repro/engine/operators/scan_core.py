"""The scan core: what every scan strategy does, each written once.

Every scanner sits under one identical operator layer and differs only
in which bytes of a page it touches (Section 2.2.2); a scan is
select ∘ gather ∘ decompress over columns.  Here live

* :func:`guarded_decode` — the one accounted page read+decode under the
  integrity policy (strict aborts, salvage records and skips);
* :func:`apply_predicates` and :meth:`Scanner._project` — the predicate
  loop and the projection copy, with their cost accounting;
* :class:`Scanner` — validation, access order, row window,
  ``describe()``, the empty block and the ready queue — with
  :class:`PagedScanner` (page at a time: row, PAX) and
  :class:`RunOnceScanner` (whole table in the first ``next()``: fused,
  pipelined, index).

A strategy says how a page is charged to the memory hierarchy, when its
decompression is charged, and what it does with a decoded page.
Accounting stays per logical page — one guarded read per page read, one
``pages_touched`` per page decoded — whatever unit bytes are fetched or
decoded in (DESIGN.md, "Scan core").
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.cache import page_lines
from repro.engine.blocks import Block, split_into_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.predicate import Predicate
from repro.errors import CompressionError, PlanError, StorageError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight

#: What salvage mode treats as "this page is corrupt, skip it": checksum
#: mismatches, malformed page bytes, codec failures, missing pages, and
#: transient faults whose retry budget is exhausted.
SALVAGEABLE_ERRORS = (StorageError, CompressionError)


def guarded_decode(context: ExecutionContext, decode, file, page: int, row_span: int):
    """Read one page and ``decode`` its bytes, under the integrity policy.

    Strict mode lets any error propagate (a checksum mismatch aborts
    the query).  Salvage mode records the fault in ``context.corruption``
    — the page's nominal row span is the loss estimate — and returns
    ``None``: the caller skips the page but keeps positions aligned.
    Only successful decodes reach ``repro_page_decode_seconds``.
    """
    timed = obs_metrics.enabled()
    try:
        if timed:
            started = time.perf_counter()
        result = decode(file.read_page(page))
        if timed:
            obs_metrics.PAGE_DECODE_SECONDS.observe(time.perf_counter() - started)
    except SALVAGEABLE_ERRORS as exc:
        if context.strict_integrity:
            raise
        governance = context.governance
        flight.record(
            "storage.salvage",
            governance.label if governance is not None else None,
            file=file.name,
            page=page,
            error=type(exc).__name__,
        )
        context.corruption.record(file.name, page, row_span, exc)
        return None
    context.corruption.pages_scanned += 1
    return result


def apply_predicates(events, bound, columns, mask, candidates: int) -> int:
    """AND every predicate into ``mask`` in place; returns how many qualify.

    ``bound`` holds ``(predicate, attr, operand_bytes)`` triples: the
    attribute names the operand array in ``columns`` and the byte width
    is what one comparison reads — the attribute's width, or the code
    width when a rewritten code predicate compares packed codes.
    ``candidates`` is how many tuples the first predicate examines;
    each later one examines the survivors of those before it.
    """
    for index, (predicate, attr, operand_bytes) in enumerate(bound):
        if index:
            candidates = int(np.count_nonzero(mask))
        events.predicate_evals += candidates
        events.predicate_eval_bytes += candidates * operand_bytes
        mask &= predicate.evaluate(columns[attr])
    return int(np.count_nonzero(mask))


def window_mask(count: int, row_base: int, row_range: tuple[int, int]):
    """``(mask, in_range)`` selecting a page's tuples inside the row window.

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
        self._ready: deque[Block] = deque()

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
        self._ready.clear()

    def _guarded(self, decode, file, page: int, row_span: int):
        """:func:`guarded_decode` for this query.

        ``repro_pages_salvaged_total`` counts once per *query* that lost
        the page, so it is counted here and not in the guarded read,
        which a shared stream performs on behalf of all its riders.
        """
        result = guarded_decode(self.context, decode, file, page, row_span)
        if result is None:
            obs_metrics.PAGES_SALVAGED.inc()
        return result

    def _charge_lazy_decodes(self, page_count: int, qualified: int) -> None:
        """Decompression of an already-decoded page, for what was touched."""
        events = self.events
        for kind in self._predicate_kinds:
            events.count_decode(kind, page_count)
        if qualified:
            whole = self.LAZY_WHOLE_PAGE_KINDS
            for kind in self._select_kinds:
                events.count_decode(kind, page_count if kind in whole else qualified)

    def _project(self, columns, mask, qualified: int, row_base: int) -> Block:
        """Copy the qualifying tuples' selected attributes into a block."""
        events = self.events
        events.values_copied += qualified * len(self.select)
        events.bytes_copied += qualified * self._selected_width
        return Block(
            columns={name: columns[name][mask] for name in self.select},
            positions=row_base + np.flatnonzero(mask),
        )

    def _emit(self, block: Block) -> None:
        self._ready.extend(split_into_blocks(block, self.context.block_size))

    def _empty_block(self) -> Block:
        """A zero-row block that keeps the output schema alive."""
        schema = self.table.schema
        columns = {
            name: np.zeros(0, dtype=schema.attribute(name).attr_type.numpy_dtype())
            for name in self.select
        }
        return Block(columns=columns, positions=np.zeros(0, dtype=np.int64))

    def _dense_pages(self, column_file, decode=None):
        """Yield ``(row_base, rows, data)`` per page of one column in the window.

        Pages wholly before the window are skipped without I/O.  A page
        salvage had to drop yields ``data=None`` and its nominal span as
        ``rows`` — a placeholder that keeps later rows, and the other
        columns, aligned.  A decoded page yields the array ``decode``
        made of it (default: its values) and is charged here: one page,
        its lines streamed through the caches.
        """
        events = self.events
        calibration = self.context.calibration
        bits = column_file.page_codec.codec.bits_per_value
        decode = decode or column_file.decode_page
        lo, hi = self.row_range
        if lo == hi and not self.EMPTY_WINDOW_READS_A_PAGE:
            return
        row_base = 0
        for page in range(column_file.file.num_pages):
            self._governance_check()
            if row_base >= hi:
                break
            span = column_file.row_span_of_page(page, self.table.num_rows)
            if row_base + span <= lo:
                row_base += span
                continue
            decoded = self._guarded(decode, column_file.file, page, span)
            if decoded is None:
                yield row_base, span, None
                row_base += span
                continue
            count = len(decoded)
            events.pages_touched += 1
            events.mem_seq_lines += page_lines(count, bits, calibration.l2_line_bytes)
            events.l1_lines += page_lines(count, bits, calibration.l1_line_bytes)
            yield row_base, count, decoded
            row_base += count


class PagedScanner(Scanner):
    """Page-at-a-time scan of a one-file table (row and PAX layouts).

    Reads every page overlapping the row window, applies the predicates
    and projects; subclasses say how a page is charged to the caches.
    """

    def _open(self) -> None:
        super()._open()
        self._page_index = 0
        self._row_base = 0
        self._emitted_any = False

    def _decode(self, page: bytes):
        return self.table.decode_page(page, self._attrs)

    def _next(self) -> Block | None:
        lo, hi = self.row_range
        table = self.table
        while not self._ready:
            index = self._page_index
            if index >= table.file.num_pages or self._row_base >= hi:
                if not self._emitted_any:
                    # Emit one empty block so the output schema survives
                    # a scan with no qualifying tuples.
                    self._emitted_any = True
                    return self._empty_block()
                return None
            self._governance_check()
            self._page_index += 1
            span = table.row_span_of_page(index)
            if self._row_base + span <= lo:
                # Page entirely before the row window: skip without I/O.
                self._row_base += span
                continue
            self._scan_page(index, span)
        self._emitted_any = True
        return self._ready.popleft()

    def _scan_page(self, index: int, span: int) -> None:
        decoded = self._guarded(self._decode, self.table.file, index, span)
        if decoded is None:
            # Salvage: skip the corrupt page but advance the global row
            # position by its nominal span so later pages' Record IDs —
            # and any position-joined column files — stay aligned.
            self._row_base += span
            return
        count, columns = decoded
        events = self.events
        mask, in_range = window_mask(count, self._row_base, self.row_range)
        events.pages_touched += 1
        events.tuples_examined += in_range
        qualified = apply_predicates(events, self._bound, columns, mask, in_range)
        self._charge_page(count, qualified)
        if qualified:
            self._emit(self._project(columns, mask, qualified, self._row_base))
        self._row_base += count

    def _charge_page(self, count: int, qualified: int) -> None:
        """Charge one decoded page — caches and decompression (hook)."""
        raise NotImplementedError


class RunOnceScanner(Scanner):
    """A scan that does all its work inside the first ``next()``."""

    def _open(self) -> None:
        super()._open()
        self._done = False

    def _next(self) -> Block | None:
        if not self._done:
            self._execute()
            self._done = True
        if not self._ready:
            return None
        return self._ready.popleft()

    def _execute(self) -> None:
        """Run the whole scan, leaving its blocks on the ready queue (hook)."""
        raise NotImplementedError
