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
window's span: the pages between them are never read.  It reads only
the codes its positions want, each at its bit offset, and decodes only
those (:meth:`~repro.storage.table.ColumnFile.gather_unit`); the cache
lines it moves are counted once per distinct access
(:meth:`ColumnScanner._compute`).

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

import numpy as np

from repro.compression.base import CodecKind
from repro.compression.dictionary import DictionaryCodec
from repro.cpusim.cache import position_lines
from repro.engine.blocks import Block, logical_bounds
from repro.engine.compressed_exec import rewrite_all
from repro.engine.operators.scan_core import RunOnceScanner, apply_predicates, window_mask
from repro.engine.operators.scan_core import decode_tuple_pages

#: Bytes to charge for the position (Record ID) in a {position, value} pair.
_POSITION_BYTES = 4


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
        share one count of them, charged once per node that moved them.
        """
        positions, collected = self._run_first_node(self._attrs[0])
        #: Position maps of the list at hand, by values per page.
        maps: dict = {}
        #: ``(bounds, in_page, counts, bits, nodes)`` of each distinct
        #: line access finished nodes made, by (bounds, bits, counts).
        lines: dict = {}
        try:
            for attr in self._attrs[1:]:
                # What the node before handed this one; the last node's
                # hand-offs are the scanner's own, counted as they are made.
                self.events.blocks_produced += len(
                    logical_bounds(self.context.block_size, (positions.size,))
                )
                handed = positions
                positions, collected = self._run_inner_node(
                    attr, positions, collected, maps, lines
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
        """Charge the caches for the nodes' line accesses
        (:func:`position_lines`), each counted once for all its nodes."""
        events = self.events
        calibration = self.context.calibration
        line_sizes = (calibration.l2_line_bytes, calibration.l1_line_bytes)
        for bounds, in_page, counts, bits, nodes in lines.values():
            (seq, rand), (l1_seq, l1_rand) = position_lines(
                bounds, in_page, counts, bits, line_sizes
            )
            events.mem_seq_lines += seq * nodes
            events.mem_rand_lines += rand * nodes
            events.l1_lines += (l1_seq + l1_rand) * nodes

    def _run_first_node(self, attr: str) -> tuple[np.ndarray, dict]:
        """Dense scan of the deepest column."""
        events = self.events
        spec = self.table.schema.attribute(attr).spec
        column_file = self.table.column_file(attr)
        codec = column_file.page_codec.codec
        bound = [b for b in self._bound if b[1] == attr]
        selected = attr in self.select
        width = self.table.schema.attribute(attr).width
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
        for row_base, count, data in self._dense_pages(column_file, on_codes is not None):
            if data is None:
                # Salvage: the page's rows vanish from the position
                # list; the nominal span keeps every later node's
                # position→page mapping aligned.
                continue
            events.values_examined += count
            mask, in_range = window_mask(count, row_base, self.row_range)
            qualified = apply_predicates(events, bound, {attr: data}, mask, in_range)
            if on_codes is None:
                events.count_decode(spec.kind, count)
                values = data[mask]
            else:
                events.count_decode(CodecKind.PACK, count)
                if selected:
                    # Only qualifying values are ever looked up.
                    values = codec.dictionary[data[mask]]
                    events.count_decode(spec.kind, qualified)
                else:
                    values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
            if qualified:
                events.values_copied += qualified
                events.bytes_copied += qualified * (width + _POSITION_BYTES)
                qualified_positions.append(row_base + np.flatnonzero(mask))
                qualified_values.append(values)

        if qualified_positions:
            positions = np.concatenate(qualified_positions)
            values = np.concatenate(qualified_values)
        else:
            positions = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
        return positions, ({attr: values} if selected else {})

    def _run_inner_node(
        self,
        attr: str,
        positions: np.ndarray,
        collected: dict,
        maps: dict,
        lines: dict,
    ) -> tuple[np.ndarray, dict]:
        """Position-driven scan of one later column; its line access is
        added to ``lines``, and ``maps`` serves its position map."""
        events = self.events
        spec = self.table.schema.attribute(attr).spec
        column_file = self.table.column_file(attr)
        codec = column_file.page_codec.codec
        bound = [b for b in self._bound if b[1] == attr]
        width = self.table.schema.attribute(attr).width
        num_rows = self.table.num_rows

        events.positions_processed += positions.size

        values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
        if positions.size:
            in_page, on_page, bounds, cuts, touched = _position_map(column_file, positions, maps)
            #: Values on each touched page; 0 where salvage dropped it.
            counts = np.zeros(len(touched), dtype=np.int64)

            def page_span(page):
                return column_file.row_span_of_page(page, num_rows)

            def gather(unit, t, pages, verify):
                # Touched pages ``t`` on, in the unit back to back.
                start, stop = cuts[t], cuts[t + pages]
                wanted = on_page[start:stop] - t, in_page[start:stop]
                size, gather_unit = column_file.file.page_size, column_file.gather_unit
                return decode_tuple_pages(page_span, size, unit, verify, gather_unit, *wanted)

            chunks, lost = [], []
            for t, pages, gathered in self._guarded_units(
                column_file.file, touched, lambda t: cuts[t + 1] - cuts[t], gather
            ):
                if gathered is None:
                    lost.append(t)
                else:
                    counts[t : t + pages], page_values = gathered
                    chunks.append(page_values)
            if chunks:
                values = np.concatenate(chunks)
            if lost:
                # Salvage: this column cannot supply a dropped page's rows,
                # so they leave the pipeline — the position list and every
                # collected column shrink in lockstep — and with no position
                # left on it the page is charged nothing below.
                keep = ~np.isin(on_page, lost)
                positions, in_page = positions[keep], in_page[keep]
                collected = {name: col[keep] for name, col in collected.items()}
                bounds = np.searchsorted(on_page[keep], np.arange(len(touched) + 1))

            events.pages_touched += len(touched) - len(lost)
            whole = codec.decodes_whole_page
            events.count_decode(spec.kind, int(counts.sum()) if whole else positions.size)
            bits = codec.bits_per_value
            # ``bounds`` is the map's own while no page was lost, so its
            # identity (the entry keeps it alive) names the map.
            key = (id(bounds), bits, counts.tobytes())
            lines.setdefault(key, [bounds, in_page, counts, bits, 0])[4] += 1

        if bound:
            # Rewrite: qualifying tuples are copied whole to new blocks.
            mask = np.ones(positions.size, dtype=bool)
            qualified = apply_predicates(
                events, bound, {attr: values}, mask, positions.size
            )
            positions = positions[mask]
            values = values[mask]
            collected = {name: col[mask] for name, col in collected.items()}
            carried_bytes = sum(
                self.table.schema.attribute(name).width for name in collected
            )
            events.values_copied += qualified * (len(collected) + 2)
            events.bytes_copied += qualified * (
                carried_bytes + width + _POSITION_BYTES
            )
        else:
            # Attach: values are appended without rewriting the tuples.
            events.values_copied += positions.size
            events.bytes_copied += positions.size * width

        if attr in self.select:
            collected = dict(collected)
            collected[attr] = values
        return positions, collected


def _position_map(column_file, positions: np.ndarray, maps: dict) -> tuple:
    """``(in_page, on_page, bounds, cuts, touched)`` of ``positions`` on a
    column's pages: each position's value index on its page and the index
    of its page among the touched ones, the list cut at page boundaries
    (touched page ``t`` holds positions ``bounds[t]:bounds[t + 1]``,
    ``cuts`` as a list) and the touched pages.

    A fixed-width column's pages hold ``values_per_page`` values each,
    so ``maps`` keeps one map per such geometry for the list at hand; an
    RLE column's page directory is its own.
    """
    geometry = column_file.values_per_page if column_file.first_rows is None else None
    if geometry in maps:
        return maps[geometry]
    page_ids, in_page = column_file.locate(positions)
    turns = np.flatnonzero(page_ids[1:] != page_ids[:-1]) + 1
    bounds = np.concatenate(([0], turns, [positions.size]))
    on_page = np.repeat(np.arange(turns.size + 1), np.diff(bounds))
    found = in_page, on_page, bounds, bounds.tolist(), page_ids[bounds[:-1]].tolist()
    if geometry is not None:
        maps[geometry] = found
    return found
