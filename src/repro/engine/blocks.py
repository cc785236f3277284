"""Tuple blocks passed between operators.

A block is an array of tuples in columnar form (one numpy array per
attribute) plus the global positions (Record IDs) of those tuples.  The
paper sizes blocks to fit the 16 KB L1 data cache and uses 100-tuple
blocks throughout; blocks are reused between operators, so block
traffic never shows up as L2 memory pressure.

That 100-tuple block is the *logical* block: what ``blocks_produced``,
the tracer and the governance checkpoints count.  What ``next()`` hands
over is a **batch** — a :class:`Block` of as many tuples as one I/O unit
or one materializing operator produced, stamped by :func:`as_batch`
with the boundaries of the logical blocks it stands for — because in
numpy the hand-off itself is the cost (DESIGN.md, "Scan core").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EngineError

DEFAULT_BLOCK_SIZE = 100


@dataclass
class Block:
    """One block of tuples in flight between operators."""

    columns: dict[str, np.ndarray]
    positions: np.ndarray
    #: End offset of each logical block this batch stands for, ascending
    #: up to ``len(self)``; ``None``: the block is one logical block.
    bounds: np.ndarray | None = None

    def __post_init__(self) -> None:
        count = len(self.positions)
        for name, column in self.columns.items():
            if len(column) != count:
                raise EngineError(
                    f"column {name!r} has {len(column)} values for "
                    f"{count} positions"
                )

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def num_blocks(self) -> int:
        """How many logical blocks this batch stands for (none when empty)."""
        if self.bounds is not None:
            return len(self.bounds)
        return 1 if len(self.positions) else 0

    def block_sizes(self) -> np.ndarray:
        """Tuples in each logical block."""
        if self.bounds is None:
            return np.array([len(self)])
        return np.diff(self.bounds, prepend=0)

    def logical_blocks(self) -> list["Block"]:
        """The batch cut at its boundaries (views): where a block's own
        bytes matter, as under a memory budget."""
        if self.bounds is None:
            return [self]
        edges = [0, *self.bounds.tolist()]
        return [self.take(slice(lo, hi)) for lo, hi in zip(edges, edges[1:])]

    def head(self, count: int) -> "Block":
        """The first ``count`` tuples (views); ``count < len(self)``.  The
        logical block the cut falls in is kept, clipped."""
        head = self.take(slice(0, count))
        if self.bounds is not None:
            head.bounds = np.append(self.bounds[: np.searchsorted(self.bounds, count)], count)
        return head

    def split(self, want: int) -> tuple["Block", "Block | None"]:
        """Cut at the first logical-block boundary at or past ``want``
        tuples: ``(the batch up to it, the rest or None)``."""
        bounds = self.bounds
        blocks = 1 if bounds is None else int(np.searchsorted(bounds, want)) + 1
        if blocks >= self.num_blocks:
            return self, None
        cut = int(bounds[blocks - 1])
        head, rest = self.take(slice(0, cut)), self.take(slice(cut, None))
        head.bounds, rest.bounds = bounds[:blocks], bounds[blocks:] - cut
        return head, rest

    @property
    def attribute_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise EngineError(f"no column {name!r} in block ({self.attribute_names})")
        return self.columns[name]

    def take(self, rows) -> "Block":
        """The sub-block of ``rows``: a boolean mask, or a slice (views)."""
        return Block(
            columns={name: col[rows] for name, col in self.columns.items()},
            positions=self.positions[rows],
        )

    def rows(self) -> list[tuple]:
        """Tuples in attribute order (testing convenience)."""
        names = self.attribute_names
        return [
            tuple(self.columns[name][i] for name in names)
            for i in range(len(self))
        ]


def concat_blocks(blocks: list[Block]) -> Block:
    """Concatenate blocks that share the same attributes."""
    if not blocks:
        return Block(columns={}, positions=np.zeros(0, dtype=np.int64))
    if len(blocks) == 1:
        return blocks[0]
    names = blocks[0].attribute_names
    for block in blocks[1:]:
        if block.attribute_names != names:
            raise EngineError(
                f"cannot concat blocks with attributes {block.attribute_names} "
                f"and {names}"
            )
    return Block(
        columns={
            name: np.concatenate([b.columns[name] for b in blocks])
            for name in names
        },
        positions=np.concatenate([b.positions for b in blocks]),
    )


def logical_bounds(block_size: int, runs) -> np.ndarray:
    """End offsets of the logical blocks of ``runs`` of tuples laid back
    to back: each run is cut every ``block_size`` tuples, and no block
    spans two runs (a row scan hands off per page; DESIGN.md, "Scan
    core").  One run is the block iterator's ``ceil(n / block_size)``."""
    if block_size <= 0:
        raise EngineError(f"block size must be positive: {block_size}")
    runs = np.asarray(runs, dtype=np.int64)
    if runs.size == 1:
        return np.minimum(np.arange(block_size, runs[0] + block_size, block_size), runs[0])
    runs = runs[runs > 0]
    ends = np.cumsum(runs)
    if not runs.size or runs.max() <= block_size:
        return ends
    blocks = -(-runs // block_size)
    nth = np.arange(blocks.sum()) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    starts = np.repeat(ends - runs, blocks)
    return np.minimum(starts + (nth + 1) * block_size, np.repeat(ends, blocks))


def as_batch(block: Block, block_size: int, runs=None) -> Block:
    """Stamp ``block`` with the logical blocks it stands for, and return it.

    The one hand-off helper, under every operator that emits: ``runs``
    are the tuples each page contributed (row and PAX scans); without
    them the block is cut every ``block_size`` tuples.
    """
    bounds = logical_bounds(block_size, (len(block),) if runs is None else runs)
    block.bounds = bounds if len(bounds) > 1 else None
    return block
