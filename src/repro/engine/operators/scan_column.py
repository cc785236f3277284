"""Pipelined column scanner (Section 2.2.2, Figure 4).

One scan node per accessed column.  The deepest node reads its whole
column, applies the query's predicates for that attribute, and produces
``{position, value}`` pairs for qualifying tuples.  Each later node is
*driven by the position list*: it only examines the values at incoming
positions, evaluates its own predicates (if any), and either rewrites
the resulting tuples (predicate nodes) or merely attaches its values
(predicate-free nodes).  Blocks are exchanged between nodes in the same
block-iterator format the rest of the engine uses.

Both kinds of node work a prefetch window of column pages at a time
(:func:`~repro.engine.operators.scan_core.window_stop`) — one read, CRC
loop and decode, then one predicate pass (first node) or one gather of
the wanted positions (later nodes) per window — while every charge,
checkpoint and fault stays per logical page (DESIGN.md, "Scan core").
A later node's window is the pages its positions touch within the
window's span: the pages between them are never read.  It reads the
codes its positions want — each at its bit offset, or unpacked with the
window's above the one gather share — and decodes only those
(:meth:`~repro.storage.page.ColumnPageCodec.gather`).  What a node needs
of its column is prepared once per loaded table (:class:`ColumnNode`),
and the cache lines the nodes move are charged once per query, in one
pass over every distinct access, each weighted by the nodes that made
it (:meth:`ColumnScanner._charge_lines`).

The cost consequences the paper measures all live here:

* later nodes do work proportional to the *qualifying* tuples, so at
  0.1 % selectivity extra columns are nearly free (Figure 7);
* at high selectivity every extra node adds per-position bookkeeping
  and copying, which is the column store's CPU overhead (Figure 6);
* a sparse position list turns a column's memory traffic from
  prefetched-sequential into random misses, while FOR-delta columns
  must decode whole pages no matter how few positions arrive
  (Figure 9).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.compression.base import Codec, CodecKind
from repro.compression.dictionary import DictionaryCodec
from repro.cpusim.cache import access_lines
from repro.engine.compressed_exec import rewrite_all
from repro.engine.blocks import Block
from repro.engine.operators.scan_core import RunOnceScanner, apply_predicates, window_mask
from repro.engine.operators.scan_core import decode_tuple_pages
from repro.storage.table import ColumnFile, ColumnTable

#: Bytes to charge for the position (Record ID) in a {position, value} pair.
_POSITION_BYTES = 4


class ColumnNode(NamedTuple):
    """What a scan node needs of one column, fixed while its table is
    loaded: prepared on the first query that scans the column
    (:func:`column_node`) and never changed, so partitions on pool
    threads read it without a lock."""

    #: Its file is read through ``column_file.file``, which a fault
    #: plan or a slow-down may swap for a wrapper in place.
    column_file: ColumnFile
    codec: Codec
    kind: CodecKind
    width: int
    bits: int
    dtype: np.dtype
    #: Values per page; ``None`` where its page directory says (RLE).
    geometry: int | None
    #: Whether a value is decoded with its whole page (FOR-delta, RLE).
    whole: bool
    #: The rows a page spans, by page id.
    span_of: Callable[[int], int]
    #: ``gather(unit, pages, slots, verify) -> (counts, values)``: the
    #: page codec's slot gather, or the column file's whole-page one.
    gather: Callable


def column_node(table: ColumnTable, name: str) -> ColumnNode:
    """The scan-node constants of ``table``'s column ``name``, kept in
    ``table.scan_nodes``: a table reloaded by a merge starts afresh.  Two
    threads that miss at once build equal values, and either is kept."""
    node = table.scan_nodes.get(name)
    if node is None:
        attribute = table.schema.attribute(name)
        column_file = table.column_file(name)
        codec = column_file.page_codec.codec
        whole = codec.decodes_whole_page
        node = table.scan_nodes[name] = ColumnNode(
            column_file=column_file,
            codec=codec,
            kind=attribute.spec.kind,
            width=attribute.width,
            bits=codec.bits_per_value,
            dtype=codec.attr_type.numpy_dtype(),
            geometry=column_file.values_per_page if column_file.first_rows is None else None,
            whole=whole,
            span_of=partial(column_file.row_span_of_page, num_rows=table.num_rows),
            gather=column_file.gather_unit if whole else column_file.page_codec.gather,
        )
    return node


class ColumnScanner(RunOnceScanner):
    """Scan a :class:`ColumnTable` through a pipeline of scan nodes.

    One node per accessed attribute, in access order: the predicate
    attributes deepest, each node carrying the predicates bound to its
    attribute.
    """

    def describe(self) -> str:
        return f"{super().describe()} | {len(self._attrs)} scan node(s)"

    def _compute(self) -> Block:
        """Run the node pipeline over the whole table.

        Nodes logically exchange 100-tuple blocks; the work and the
        block handoffs are accounted per node and per logical page,
        while the computation is vectorized a prefetch window at a time.
        While the position list is unchanged — every node that attaches
        values after the last that filters — nodes of one page geometry
        share its position map, and nodes that move the same lines
        share one access, weighted by how many moved it; every access of
        the query is charged in one pass at its end (:meth:`_charge_lines`).
        """
        nodes = {name: column_node(self.table, name) for name in self._attrs}
        positions, collected = self._run_first_node(self._attrs[0], nodes)
        events, block_size = self.events, self.context.block_size
        #: Position maps of the list at hand, by values per page.
        maps: dict = {}
        #: ``[bounds, in_page, counts, bits, nodes]`` of each distinct
        #: line access finished nodes made, by (bounds, bits, counts).
        lines: dict = {}
        try:
            for attr in self._attrs[1:]:
                # What the node before handed this one, in logical blocks;
                # the last node's hand-offs are the scanner's own, counted
                # as they are made.
                events.blocks_produced += -(-positions.size // block_size)
                handed = positions
                positions, collected = self._run_inner_node(
                    attr, nodes, positions, collected, maps, lines
                )
                if positions is not handed:
                    maps.clear()
        finally:
            self._charge_lines(lines)
        return Block(
            columns={name: collected[name] for name in self.select},
            positions=positions,
        )

    def _charge_lines(self, lines: dict) -> None:
        """Charge the caches for the nodes' line accesses, each counted
        once per node that made it, in one pass (:func:`access_lines`)."""
        if not lines:
            return
        calibration = self.context.calibration
        line_sizes = (calibration.l2_line_bytes, calibration.l1_line_bytes)
        (seq, rand), (l1_seq, l1_rand) = access_lines(list(lines.values()), line_sizes)
        events = self.events
        events.mem_seq_lines += seq
        events.mem_rand_lines += rand
        events.l1_lines += l1_seq + l1_rand

    def _run_first_node(self, attr: str, nodes: dict) -> tuple[np.ndarray, dict]:
        """Dense scan of the deepest column."""
        events = self.events
        node = nodes[attr]
        codec = node.codec
        bound = [b for b in self._bound if b[1] == attr]
        selected = attr in self.select
        on_codes = None
        if (
            self.context.compressed_execution
            and bound
            and isinstance(codec, DictionaryCodec)
        ):
            on_codes = rewrite_all(tuple(p for p, _attr, _width in bound), codec)
        if on_codes is not None:
            # Compressed execution: compare the packed codes; the only
            # work per value is the bit extraction, and the comparison
            # operand is the narrow code, not the value.
            code_bytes = max(1, codec.bits_per_value // 8)
            bound = [(predicate, attr, code_bytes) for predicate in on_codes]

        qualified_positions = []
        qualified_values = []
        for row_base, count, data in self._dense_pages(node.column_file, on_codes is not None):
            if data is None:
                # Salvage: the page's rows vanish from the position
                # list; the nominal span keeps every later node's
                # position→page mapping aligned.
                continue
            events.values_examined += count
            mask, in_range = window_mask(count, row_base, self.row_range)
            qualified = apply_predicates(events, bound, {attr: data}, mask, in_range)
            rows = mask.nonzero()[0]
            if on_codes is None:
                events.count_decode(node.kind, count)
                values = data[rows]
            else:
                events.count_decode(CodecKind.PACK, count)
                if selected:
                    # Only qualifying values are ever looked up.
                    values = codec.dictionary[data[rows]]
                    events.count_decode(node.kind, qualified)
                else:
                    values = np.zeros(0, dtype=node.dtype)
            if qualified:
                events.values_copied += qualified
                events.bytes_copied += qualified * (node.width + _POSITION_BYTES)
                qualified_positions.append(row_base + rows)
                qualified_values.append(values)

        if qualified_positions:
            positions = np.concatenate(qualified_positions)
            values = np.concatenate(qualified_values)
        else:
            positions = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=node.dtype)
        return positions, ({attr: values} if selected else {})

    def _run_inner_node(
        self,
        attr: str,
        nodes: dict,
        positions: np.ndarray,
        collected: dict,
        maps: dict,
        lines: dict,
    ) -> tuple[np.ndarray, dict]:
        """Position-driven scan of one later column; its line access is
        added to ``lines``, and ``maps`` serves its position map.

        The touched pages are read through :meth:`_guarded_units`, and a
        healthy window goes straight from the page checks to the wanted
        codes (:meth:`~repro.storage.table.ColumnFile.gather_unit`)."""
        events = self.events
        node = nodes[attr]
        events.positions_processed += positions.size

        values = np.zeros(0, dtype=node.dtype)
        if positions.size:
            mapped = maps.get(node.geometry) or _position_map(node, positions, maps)
            in_page, on_page, bounds, cuts, touched = mapped
            file = node.column_file.file
            span_of, size, gather = node.span_of, file.page_size, node.gather
            count = len(touched)

            def read(unit, t, pages, verify):
                # Touched pages ``t`` on, in the unit back to back.
                if pages == count:
                    wanted = on_page, in_page
                else:
                    start, stop = cuts[t], cuts[t + pages]
                    wanted = on_page[start:stop] - t, in_page[start:stop]
                return decode_tuple_pages(span_of, size, unit, verify, gather, *wanted)

            pieces, lost = [], []
            for t, _pages, gathered in self._guarded_units(
                file, touched, lambda t: cuts[t + 1] - cuts[t], read
            ):
                if gathered is None:
                    lost.append(t)
                    gathered = _LOST, values
                pieces.append(gathered)
            if len(pieces) == 1:
                ((counts, values),) = pieces
            else:
                counts, chunks = zip(*pieces)
                counts, values = np.concatenate(counts), np.concatenate(chunks)
            if lost:
                # Salvage: this column cannot supply a dropped page's rows,
                # so they leave the pipeline — the position list and every
                # collected column shrink in lockstep — and with no position
                # left on it the page is charged nothing below.
                keep = ~np.isin(on_page, lost)
                positions, in_page = positions[keep], in_page[keep]
                collected = {name: col[keep] for name, col in collected.items()}
                bounds = np.searchsorted(on_page[keep], np.arange(count + 1))

            events.pages_touched += count - len(lost)
            events.count_decode(node.kind, int(counts.sum()) if node.whole else positions.size)
            # ``bounds`` is the map's own while no page was lost, so its
            # identity (the entry keeps it alive) names the map.
            key = (id(bounds), node.bits, counts.tobytes())
            lines.setdefault(key, [bounds, in_page, counts, node.bits, 0])[4] += 1

        if attr in self._filtered:
            bound = [b for b in self._bound if b[1] == attr]
            # Rewrite: qualifying tuples are copied whole to new blocks.
            mask = np.ones(positions.size, dtype=bool)
            qualified = apply_predicates(
                events, bound, {attr: values}, mask, positions.size
            )
            positions = positions[mask]
            values = values[mask]
            collected = {name: col[mask] for name, col in collected.items()}
            carried_bytes = sum(nodes[name].width for name in collected)
            events.values_copied += qualified * (len(collected) + 2)
            events.bytes_copied += qualified * (
                carried_bytes + node.width + _POSITION_BYTES
            )
        else:
            # Attach: values are appended without rewriting the tuples.
            events.values_copied += positions.size
            events.bytes_copied += positions.size * node.width

        if attr in self.select:
            collected = dict(collected)
            collected[attr] = values
        return positions, collected


#: The values a page salvage dropped counts: none.
_LOST = np.zeros(1, dtype=np.int64)


def _position_map(node: ColumnNode, positions: np.ndarray, maps: dict) -> tuple:
    """``(in_page, on_page, bounds, cuts, touched)`` of ``positions`` on a
    column's pages: each position's value index on its page and the index
    of its page among the touched ones, the list cut at page boundaries
    (touched page ``t`` holds positions ``bounds[t]:bounds[t + 1]``,
    ``cuts`` as a list) and the touched pages.

    A fixed-width column's pages hold ``values_per_page`` values each,
    so ``maps`` keeps one map per such geometry for the list at hand; an
    RLE column's page directory is its own.
    """
    page_ids, in_page = node.column_file.locate(positions)
    # Where the list turns to a new page, then its end.
    turns = np.empty(positions.size + 1, dtype=bool)
    turns[0] = turns[-1] = True
    np.not_equal(page_ids[1:], page_ids[:-1], out=turns[1:-1])
    bounds = turns.nonzero()[0]
    touched = page_ids[bounds[:-1]].tolist()
    if touched[-1] - touched[0] + 1 == len(touched):
        on_page = page_ids - touched[0]  # no page skipped
    else:
        on_page = turns[:-1].cumsum() - 1
    found = in_page, on_page, bounds, bounds.tolist(), touched
    if node.geometry is not None:
        maps[node.geometry] = found
    return found
