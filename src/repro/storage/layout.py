"""Physical layout choices."""

from __future__ import annotations

import enum


class Layout(enum.Enum):
    """How a table's tuples are laid out on disk.

    ``ROW`` and ``COLUMN`` are the paper's two contenders (Figure 3);
    ``PAX`` is the Section 6 hybrid — row-store I/O with column-grouped
    pages — implemented as an extension for the pax-comparison experiment.
    """

    ROW = "row"
    COLUMN = "column"
    PAX = "pax"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
