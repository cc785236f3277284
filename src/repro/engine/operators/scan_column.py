"""Pipelined column scanner (Section 2.2.2, Figure 4).

One scan node per accessed column.  The deepest node reads its whole
column, applies the query's predicates for that attribute, and produces
``{position, value}`` pairs for qualifying tuples.  Each later node is
*driven by the position list*: it only examines the values at incoming
positions, evaluates its own predicates (if any), and either rewrites
the resulting tuples (predicate nodes) or merely attaches its values
(predicate-free nodes).  Blocks are exchanged between nodes in the same
block-iterator format the rest of the engine uses.

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
from repro.cpusim.cache import classify_page_access
from repro.engine.blocks import Block
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

    def _execute(self) -> None:
        """Run the node pipeline over the whole table.

        Nodes logically exchange 100-tuple blocks; the work and the
        block handoffs are accounted per node, while the computation is
        vectorized page-at-a-time for speed.
        """
        positions, collected = self._run_first_node(self._attrs[0])
        for attr in self._attrs[1:]:
            positions, collected = self._run_inner_node(attr, positions, collected)
        # The final node's output blocks are the scanner's own output,
        # which the base class already counts on emission.
        self.events.blocks_produced -= self._block_count(positions.size)
        self._emit(
            Block(
                columns={name: collected[name] for name in self.select},
                positions=positions,
            )
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
        decode = on_codes = None
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
            page_codec = column_file.page_codec

            def decode(page):
                _pid, count, payload, _state = page_codec.decode_raw(page)
                return codec.unpack_codes(payload, count)

        qualified_positions = []
        qualified_values = []
        for row_base, count, data in self._dense_pages(column_file, decode):
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
        events.blocks_produced += self._block_count(positions.size)
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
        page_codec = column_file.page_codec
        codec = page_codec.codec
        bits = codec.bits_per_value
        bound = [b for b in self._bound if b[1] == attr]
        width = self.table.schema.attribute(attr).width

        events.positions_processed += positions.size

        values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
        if positions.size:
            page_ids = column_file.page_of_positions(positions)
            keep = np.ones(positions.size, dtype=bool)
            chunks = []
            for page_id in np.unique(page_ids):
                self._governance_check()
                selector = page_ids == page_id
                in_page = positions[selector] - column_file.first_row_of_page(
                    int(page_id)
                )

                def decode(page, in_page=in_page):
                    _pid, count, payload, state = page_codec.decode_raw(page)
                    page_values, decoded = codec.decode_positions(
                        payload, count, state, in_page
                    )
                    return count, page_values, decoded

                result = self._guarded(
                    decode, column_file.file, int(page_id), int(in_page.size)
                )
                if result is None:
                    # Salvage: this column cannot supply these rows, so
                    # they are dropped from the pipeline — the position
                    # list and every already-collected column shrink in
                    # lockstep below.
                    keep &= ~selector
                    continue
                count, page_values, decoded = result
                chunks.append(page_values)

                events.pages_touched += 1
                events.count_decode(spec.kind, decoded)
                seq, rand = classify_page_access(
                    in_page, count, bits, calibration.l2_line_bytes
                )
                events.mem_seq_lines += seq
                events.mem_rand_lines += rand
                l1_seq, l1_rand = classify_page_access(
                    in_page, count, bits, calibration.l1_line_bytes
                )
                events.l1_lines += l1_seq + l1_rand
            if not keep.all():
                positions = positions[keep]
                collected = {name: col[keep] for name, col in collected.items()}
            if chunks:
                values = np.concatenate(chunks)

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
        events.blocks_produced += self._block_count(positions.size)
        return positions, collected

    def _block_count(self, tuples: int) -> int:
        if tuples <= 0:
            return 0
        block_size = self.context.block_size
        return (tuples + block_size - 1) // block_size
