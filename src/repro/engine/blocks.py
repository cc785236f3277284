"""Tuple blocks passed between operators.

A block is an array of tuples in columnar form (one numpy array per
attribute) plus the global positions (Record IDs) of those tuples.  The
paper sizes blocks to fit the 16 KB L1 data cache and uses 100-tuple
blocks throughout; blocks are reused between operators, so block
traffic never shows up as L2 memory pressure.
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
    def attribute_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise EngineError(f"no column {name!r} in block ({self.attribute_names})")
        return self.columns[name]

    def with_column(self, name: str, values: np.ndarray) -> "Block":
        """A block with one more attribute attached (no copy of others)."""
        if len(values) != len(self):
            raise EngineError(
                f"attaching {len(values)} values to a {len(self)}-tuple block"
            )
        columns = dict(self.columns)
        columns[name] = values
        return Block(columns=columns, positions=self.positions)

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


def split_into_blocks(
    block: Block, block_size: int, start: int = 0, stop: int | None = None
) -> list[Block]:
    """Split a large block — its rows ``[start, stop)`` — into engine-sized blocks."""
    if block_size <= 0:
        raise EngineError(f"block size must be positive: {block_size}")
    if len(block) == 0:
        # Preserve the (empty) column structure of a no-result scan.
        return [block]
    stop = len(block) if stop is None else stop
    return [
        block.take(slice(cut, min(cut + block_size, stop)))
        for cut in range(start, stop, block_size)
    ]
