"""Pipelined column scanner (Section 2.2.2, Figure 4).

One scan node per accessed column.  The deepest node reads its whole
column, applies the query's predicates for that attribute, and produces
``{position, value}`` pairs for qualifying tuples.  Each later node is
*driven by the position list*: it only examines the values at incoming
positions, evaluates its own predicates (if any), and either rewrites
the resulting tuples (predicate nodes) or merely attaches its values
(predicate-free nodes).  Blocks are exchanged between nodes in the same
block-iterator format the rest of the engine uses.

Both kinds of node work an I/O unit of column pages at a time — read,
CRC, decode, then one predicate pass (first node) or one gather of the
wanted positions (later nodes) per unit, and one cache classification
per node — while every charge, checkpoint and fault stays per logical
page (DESIGN.md, "Scan core").

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
from repro.cpusim.cache import classify_access
from repro.engine.blocks import Block, logical_bounds
from repro.engine.compressed_exec import rewrite_all
from repro.engine.operators.scan_core import RunOnceScanner, apply_predicates, window_mask

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
        while the computation is vectorized an I/O unit at a time.
        """
        positions, collected = self._run_first_node(self._attrs[0])
        for attr in self._attrs[1:]:
            # What the node before handed this one; the last node's
            # hand-offs are the scanner's own, counted as they are made.
            self.events.blocks_produced += len(
                logical_bounds(self.context.block_size, (positions.size,))
            )
            positions, collected = self._run_inner_node(attr, positions, collected)
        return Block(
            columns={name: collected[name] for name in self.select},
            positions=positions,
        )

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
    ) -> tuple[np.ndarray, dict]:
        """Position-driven scan of one later column."""
        events = self.events
        calibration = self.context.calibration
        spec = self.table.schema.attribute(attr).spec
        column_file = self.table.column_file(attr)
        codec = column_file.page_codec.codec
        bound = [b for b in self._bound if b[1] == attr]
        width = self.table.schema.attribute(attr).width

        events.positions_processed += positions.size

        values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
        if positions.size:
            page_ids, in_page = column_file.locate(positions)
            # The sorted list cut at page boundaries: touched page ``t``
            # holds positions ``cuts[t]:cuts[t + 1]``.
            turns = np.flatnonzero(page_ids[1:] != page_ids[:-1]) + 1
            cuts = [0, *turns.tolist(), positions.size]
            touched = page_ids[cuts[:-1]].tolist()
            #: Values on each touched page; 0 where salvage dropped it.
            counts = np.zeros(len(touched), dtype=np.int64)

            def gather(unit, t, pages):
                on = slice(cuts[t], cuts[t + pages])
                return column_file.gather_unit(unit, page_ids[on] - touched[t], in_page[on])

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
            on_page = np.cumsum(np.bincount(turns, minlength=positions.size))
            if lost:
                # Salvage: this column cannot supply a dropped page's rows,
                # so they leave the pipeline — the position list and every
                # collected column shrink in lockstep — and with no position
                # left on it the page is charged nothing below.
                keep = ~np.isin(on_page, lost)
                positions, in_page, on_page = positions[keep], in_page[keep], on_page[keep]
                collected = {name: col[keep] for name, col in collected.items()}

            events.pages_touched += len(touched) - len(lost)
            whole = codec.decodes_whole_page
            events.count_decode(spec.kind, int(counts.sum()) if whole else positions.size)
            access = (on_page, in_page, counts, codec.bits_per_value)
            seq, rand = classify_access(*access, calibration.l2_line_bytes)
            events.mem_seq_lines += int(seq.sum())
            events.mem_rand_lines += int(rand.sum())
            seq, rand = classify_access(*access, calibration.l1_line_bytes)
            events.l1_lines += int(seq.sum() + rand.sum())

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
